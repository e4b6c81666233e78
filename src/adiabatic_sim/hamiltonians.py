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
The dense builders and ``interpolate`` serve the gap scan and the tests, under
DENSE_OPERATOR_CAP.

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

from .errors import DomainError
from .oracles import BvMask, SimonOracle, simon_eval_all
from .qstate import DEFAULT_QUBIT_CAP, IDENTITY_2, SIGMA_X, SIGMA_Z, check_capacity

# Dense operators are for the gap scan (and tests) only; 2^12 x 2^12 is the
# largest we build.  Time evolution never builds one.
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


def bv_interpolated(mask: BvMask, cap: int = DEFAULT_QUBIT_CAP) -> InterpolatedHamiltonian:
    """BV H(s): problem diagonal -1 at |w>|f(w)>, 0 elsewhere, on n+1 qubits."""
    n = mask.n
    check_capacity(n + 1, cap)
    diag = np.zeros(1 << (n + 1))
    w_all = np.arange(1 << n)
    f = np.bitwise_count(w_all & mask.a) & 1
    diag[2 * w_all + f] = -1.0
    return InterpolatedHamiltonian(diag, (n, 1))


def simon_interpolated(
    oracle: SimonOracle, cap: int = DEFAULT_QUBIT_CAP
) -> InterpolatedHamiltonian:
    """Simon H(s): problem diagonal hamming(y, g(w)) at |w>|y>, on 2n-1 qubits."""
    n = oracle.n
    m = n - 1
    check_capacity(n + m, cap)
    g = np.asarray(simon_eval_all(oracle))
    y_all = np.arange(1 << m)
    dist = np.bitwise_count(np.bitwise_xor(g[:, None], y_all[None, :]))
    return InterpolatedHamiltonian(dist.reshape(-1).astype(np.float64), (n, m))


def _dense_driver(dims: tuple[int, int]) -> np.ndarray:
    """Dense H_d = 1/2 sum_k (1 - sigma_x^k) on the n_b output qubits, identity on A."""
    n_a, n_b = dims
    check_capacity(n_a + n_b, DENSE_OPERATOR_CAP)
    y = np.arange(1 << n_b)
    b_part = np.zeros((1 << n_b, 1 << n_b))
    b_part[y, y] = 0.5 * n_b
    for k in range(n_b):
        b_part[y, y ^ (1 << k)] = -0.5
    return np.kron(np.eye(1 << n_a), b_part)


def bv_problem(mask: BvMask) -> np.ndarray:
    """Dense diagonal BV problem Hamiltonian on n+1 qubits."""
    return np.diag(bv_interpolated(mask, cap=DENSE_OPERATOR_CAP).problem_diag)


def bv_driver(n: int) -> np.ndarray:
    """Dense transverse-field driver 1/2 (1 - sigma_x) on the B qubit, identity on A."""
    return _dense_driver((n, 1))


def simon_problem(oracle: SimonOracle) -> np.ndarray:
    """Dense diagonal Simon problem Hamiltonian: Hamming distance to g(w) on the B register."""
    return np.diag(simon_interpolated(oracle, cap=DENSE_OPERATOR_CAP).problem_diag)


def simon_driver(n: int) -> np.ndarray:
    """Dense transverse field 1/2 sum_k (1 - sigma_x^k) on the n-1 B qubits, identity on A."""
    return _dense_driver((n, n - 1))


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
