"""Problem and driver Hamiltonians, their interpolation, and spectral gaps.

Both algorithms anneal H(s) = s*H_problem + (1-s)*H_driver on an (A, B)
register pair where A holds the n oracle inputs w and B the m output qubits:
H_p is diagonal with entry hamming(y, f(w)) at |w>|y> (ground energy 0,
2^n-fold degenerate), and H_d = 1/2 sum_k (1 - sigma_x^k) over the B qubits.
BV is this encoding with m = 1, Simon with m = n - 1.

``InterpolatedHamiltonian`` keeps only the problem diagonal and the register
sizes; ``_apply_h`` applies H(s) without a matrix.  Building one, or scanning
its gap, is refused above ``qstate.DENSE_QUBIT_CAP`` total qubits.  The gap
scan reads H(s) on K, the smallest subspace holding |+>|+> that H_p and H_d
map into itself, which the anneal never leaves.  A Krylov closure finds K
without the factorization below, so the scan is a witness of it: K is the
symmetric subspace of the m output qubits (m + 1 dimensions).

Because H(s) is block diagonal in w and the B qubits are uncoupled, every
branch reduces to independent two-level systems; ``TwoLevelBlock`` names
one and ``gap`` gives its level splitting.  An output qubit's block is
``TwoLevelBlock``'s plus s*1, a phase that ``protocols.branch_pair`` applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError
from .oracles import BvMask, SimonOracle
from .qstate import check_capacity

# A closure residual at most this times the operators' scale is round-off
# (it was at most 2e-16 for Simon n = 10, where kept residuals were above 0.16).
_CLOSURE_TOL = 1e-10


@dataclass(frozen=True)
class InterpolatedHamiltonian:
    """H(s) = s*H_p + (1-s)*H_d on registers of size dims = (n_a, n_b).

    H_p is stored as its real diagonal ``problem_diag``; the driver
    H_d = 1/2 sum_k (1 - sigma_x^k) over the n_b output qubits is fixed by dims.
    """

    problem_diag: np.ndarray
    dims: tuple[int, int]


@dataclass(frozen=True)
class TwoLevelBlock:
    """One decoupled qubit branch; f_bit selects the sigma_z sign:
    H_w(s) = 1/2 [(1-s)(1 - sigma_x) - s(1 + (-1)^f sigma_z)].
    An output qubit's Hamming-encoded block is this plus s*1."""

    f_bit: int

    def __post_init__(self) -> None:
        if self.f_bit not in (0, 1):
            raise DomainError("f_bit must be 0 or 1")


def interpolated(oracle: BvMask | SimonOracle) -> InterpolatedHamiltonian:
    """H(s) of an oracle with n inputs and m outputs f(w): problem diagonal
    hamming(y, f(w)) at index w * 2^m + y, on n + m qubits."""
    n, m = oracle.n, oracle.m
    check_capacity(n + m)
    dist = np.bitwise_count(np.bitwise_xor(oracle.outputs()[:, None], np.arange(1 << m)))
    return InterpolatedHamiltonian(dist.reshape(-1).astype(np.float64), (n, m))


def _apply_h(diag_s, half_drive: float, n_b: int, psi: np.ndarray, out: np.ndarray) -> None:
    """out = H(s) psi = diag_s psi - half_drive * sum_k X_k psi, matrix-free.

    diag_s folds s*H_p and the driver's constant part into one diagonal (or a
    scalar); X_k flips output qubit k by reversing one axis of a reshaped view.
    """
    np.multiply(diag_s, psi, out=out)
    if n_b:  # H_p alone (n_b = 0) reads no scaled copy of psi
        scaled = half_drive * psi
        for k in range(n_b):
            view = out.reshape(-1, 2, 1 << k)
            view -= scaled.reshape(-1, 2, 1 << k)[:, ::-1]


def gap(s: float) -> float:
    """Energy difference of the two levels of any branch block, sqrt((1-s)^2 + s^2)."""
    return math.hypot(1.0 - s, s)


def _closure(h: InterpolatedHamiltonian) -> np.ndarray:
    """H_p and H_d projected onto K, shape (2, d, d).

    K is spanned from |+>|+> by applying both operators to each basis vector j
    in turn and keeping what two Gram-Schmidt passes leave above _CLOSURE_TOL;
    their overlaps and the kept norm fill column j.  More than n_b + 1 vectors
    (H_p is no Hamming encoding), or one alone, are refused.
    """
    n_a, n_b = h.dims
    check_capacity(n_a + n_b, "the gap scan's subspace")
    # H_p, and H_d = n_b/2 - 1/2 sum_k X_k, through the one matrix-free product
    ops = (partial(_apply_h, h.problem_diag, 0.0, 0), partial(_apply_h, 0.5 * n_b, 0.5, n_b))
    tol = _CLOSURE_TOL * max(float(np.abs(h.problem_diag).max()), n_b)
    basis = np.empty((n_b + 2, 1 << (n_a + n_b)))  # row d holds the next candidate
    basis[0] = 1.0 / math.sqrt(basis.shape[1])
    projected = np.zeros((2, n_b + 1, n_b + 1))
    d, j = 1, 0
    while j < d:
        for x, op in enumerate(ops):
            op(basis[j], basis[d])
            for _ in range(2):
                overlaps = basis[:d] @ basis[d]
                projected[x, :d, j] += overlaps
                basis[d] -= overlaps @ basis[:d]
            norm = math.sqrt(float(basis[d] @ basis[d]))
            if norm > tol:
                if d == n_b + 1:
                    raise DomainError(f"the gap scan's subspace outgrew {d} vectors: "
                                      "the problem diagonal is no Hamming encoding")
                basis[d] *= 1.0 / norm
                projected[x, d, j] = norm
                d += 1
        j += 1
    if d == 1:
        raise DomainError("the gap scan's subspace holds one level: H(s) has no gap on it")
    return projected[:, :d, :d]


def gap_table(h: InterpolatedHamiltonian, grid: int) -> list[tuple[float, float]]:
    """(s, gap) pairs on a uniform grid over [0, 1]: the spacing of the two lowest
    eigenvalues of H(s) on K, where no level is degenerate."""
    if grid < 3:
        raise DomainError("gap scan needs a grid of at least 3 points")
    hp, hd = _closure(h)
    points = np.linspace(0.0, 1.0, grid)
    evals = (np.linalg.eigvalsh(s * hp + (1.0 - s) * hd) for s in points)
    return [(float(s), float(e[1] - e[0])) for s, e in zip(points, evals)]
