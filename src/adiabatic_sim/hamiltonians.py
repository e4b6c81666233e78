"""Problem and driver Hamiltonians, their interpolation, and spectral gaps.

Both algorithms anneal H(s) = s*H_problem + (1-s)*H_driver on an (A, B)
register pair where A holds the oracle input w and B the output register.

  BV:    H_p is diagonal with entry -1 at |w>|f(w)> and 0 elsewhere
         (ground energy -1, 2^n-fold degenerate);
         H_d = 1/2 (1 - sigma_x) on the single B qubit.
  Simon: H_p is diagonal with entry hamming(y, g(w)) at |w>|y>
         (ground energy 0, 2^n-fold degenerate);
         H_d = 1/2 sum_k (1 - sigma_x^k) over the n-1 B qubits.

``InterpolatedHamiltonian`` keeps only the problem diagonal and the register
sizes; ``evolution.evolve_full`` applies H(s) to a state without a matrix.
Building one is refused above ``qstate.DENSE_QUBIT_CAP`` total qubits, the
package's one memory rule.  ``interpolate`` builds the dense H(s) for the
gap scan and the tests, refused above DENSE_OPERATOR_CAP, a run-time bound.

Because H(s) is block diagonal in w and the B qubits are uncoupled, every
branch reduces to independent two-level systems; ``two_level``/``gap`` expose
that reduced picture.  The two energy conventions above are kept exactly as
stated (not shifted to a common zero) so final states can be compared
directly against their target encodings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .oracles import BvMask, SimonOracle, bv_eval_all, simon_eval_all
from .qstate import IDENTITY_2, SIGMA_X, SIGMA_Z, check_capacity

# Run time: the gap scan diagonalizes one 2^k x 2^k matrix per grid point, so
# k is capped here.  Time evolution never builds a dense operator.
DENSE_OPERATOR_CAP = 12


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
    """One decoupled qubit branch; f_bit selects the sigma_z sign.

    kind "bv": H_w(s) = 1/2 [(1-s)(1 - sigma_x) - s(1 + (-1)^f sigma_z)]
    kind "simon" (per output qubit, with its +1/2 offset):
                 H_w(s) = 1/2 [(1-s)(1 - sigma_x) + s(1 - (-1)^f sigma_z)]
    """

    f_bit: int
    kind: str = "bv"

    def __post_init__(self) -> None:
        if self.f_bit not in (0, 1):
            raise DomainError("f_bit must be 0 or 1")
        if self.kind not in ("bv", "simon"):
            raise DomainError(f"unknown block kind {self.kind!r}")


def _hamming_diag(outputs: np.ndarray, m: int) -> np.ndarray:
    """hamming(y, f(w)) at index w * 2^m + y, given the m-bit outputs f(w)."""
    dist = np.bitwise_count(np.bitwise_xor(outputs[:, None], np.arange(1 << m)))
    return dist.reshape(-1).astype(np.float64)


def bv_interpolated(mask: BvMask) -> InterpolatedHamiltonian:
    """BV H(s): problem diagonal -1 at |w>|f(w)>, 0 elsewhere, on n+1 qubits."""
    check_capacity(mask.n + 1)
    return InterpolatedHamiltonian(_hamming_diag(bv_eval_all(mask), 1) - 1.0, (mask.n, 1))


def simon_interpolated(oracle: SimonOracle) -> InterpolatedHamiltonian:
    """Simon H(s): problem diagonal hamming(y, g(w)) at |w>|y>, on 2n-1 qubits."""
    m = oracle.n - 1
    check_capacity(oracle.n + m)
    return InterpolatedHamiltonian(_hamming_diag(simon_eval_all(oracle), m), (oracle.n, m))


def _dense_driver(dims: tuple[int, int]) -> np.ndarray:
    """Dense H_d = 1/2 sum_k (1 - sigma_x^k) on the n_b output qubits, identity on A."""
    n_a, n_b = dims
    if n_a + n_b > DENSE_OPERATOR_CAP:
        raise CapacityError(
            f"a dense operator on {n_a + n_b} qubits exceeds the cap of {DENSE_OPERATOR_CAP}"
        )
    y = np.arange(1 << n_b)
    b_part = np.zeros((1 << n_b, 1 << n_b))
    b_part[y, y] = 0.5 * n_b
    for k in range(n_b):
        b_part[y, y ^ (1 << k)] = -0.5
    return np.kron(np.eye(1 << n_a), b_part)


def interpolate(h: InterpolatedHamiltonian, s: float) -> np.ndarray:
    """Dense convex combination s*H_p + (1-s)*H_d."""
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"annealing parameter s={s} outside [0, 1]")
    driver = _dense_driver(h.dims)  # checks the cap before anything dense is built
    return s * np.diag(h.problem_diag) + (1.0 - s) * driver


def two_level(block: TwoLevelBlock, s: float) -> np.ndarray:
    """The 2x2 branch Hamiltonian at parameter s."""
    sign = -1.0 if block.f_bit else 1.0
    driver = 0.5 * (1.0 - s) * (IDENTITY_2 - SIGMA_X)
    if block.kind == "bv":
        return driver - 0.5 * s * (IDENTITY_2 + sign * SIGMA_Z)
    return driver + 0.5 * s * (IDENTITY_2 - sign * SIGMA_Z)


def gap(block: TwoLevelBlock, s: float) -> float:
    """Energy difference of the two branch levels, sqrt((1-s)^2 + s^2) for either block."""
    return math.hypot(1.0 - s, s)


# Eigenvalues closer than this are treated as one degenerate level.
_DEGENERACY_TOL = 1e-8


def _level_gap(dense_h: np.ndarray) -> float:
    """Gap between the (possibly degenerate) ground level and the next level."""
    evals = np.linalg.eigvalsh(dense_h)
    above = evals[evals > evals[0] + _DEGENERACY_TOL]
    if above.size == 0:
        return 0.0
    return float(above[0] - evals[0])


def gap_table(h: InterpolatedHamiltonian, grid: int) -> list[tuple[float, float]]:
    """(s, gap) pairs on a uniform grid over [0, 1]."""
    if grid < 3:
        raise DomainError("gap scan needs a grid of at least 3 points")
    points = np.linspace(0.0, 1.0, grid)
    return [(float(s), _level_gap(interpolate(h, float(s)))) for s in points]


@dataclass(frozen=True)
class GapScan:
    s_min: float
    gap_min: float


def min_gap_scan(h: InterpolatedHamiltonian, grid: int) -> GapScan:
    """Minimum ground-to-first-excited gap over a uniform s grid."""
    table = gap_table(h, grid)
    s_min, gap_min = min(table, key=lambda pair: pair[1])
    return GapScan(s_min=s_min, gap_min=gap_min)
