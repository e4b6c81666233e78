"""Builders and reference definitions shared by the tests."""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from adiabatic_sim.errors import DomainError, ResampleError, ShapeError
from adiabatic_sim.evolution import Schedule, _su2_steps, evolve_two_level
from adiabatic_sim.gf2 import Gf2Matrix, recover_mask
from adiabatic_sim.hamiltonians import InterpolatedHamiltonian, TwoLevelBlock
from adiabatic_sim.measurement import (
    RandomSource,
    _read_factored,
    _row_bits,
    _scrambled_row,
    simon_row_bit_prob,
)
from adiabatic_sim.oracles import BvMask, SimonOracle, _canonical_g, simon_build, simon_orthogonal_row
from adiabatic_sim.protocols import branch_pair, resolve_config
from adiabatic_sim.qstate import StateVector, _fwht_inplace

IDENTITY_2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)


def inner(u: StateVector, v: StateVector) -> complex:
    """<u|v>, conjugate-linear in the first argument."""
    if u.dim != v.dim:
        raise ShapeError(f"dimension mismatch: {u.dim} vs {v.dim}")
    return complex(np.vdot(u.amps, v.amps))


def fidelity(u: StateVector, v: StateVector) -> float:
    """|<u|v>|^2."""
    return abs(inner(u, v)) ** 2


def bv_eval(mask: BvMask, w: int) -> int:
    """f(w): parity of the bitwise AND of w with the hidden mask."""
    if not 0 <= w < (1 << mask.n):
        raise DomainError(f"input {w} out of range for {mask.n} bits")
    return (w & mask.a).bit_count() & 1


def dot2(x: int, a: int) -> int:
    """Bitwise dot product mod 2."""
    return (x & a).bit_count() & 1


def simon_eval(oracle: SimonOracle, w: int) -> int:
    """g(w) as an (n-1)-bit integer."""
    if not 0 <= w < (1 << oracle.n):
        raise DomainError(f"input {w} out of range for {oracle.n} bits")
    g = _canonical_g(oracle.n, oracle.a, oracle.pivot_bit, w)
    if oracle.scramble is not None:
        g = int(oracle.scramble[g])
    return int(g)


@dataclass(frozen=True)
class ClassicalResult:
    queries: int
    a: int


def classical_simon(oracle: SimonOracle, rng: RandomSource) -> ClassicalResult:
    """Query distinct random inputs until two collide; their xor is the mask.

    Birthday statistics put the query count near 2^(n/2); a collision is
    forced after at most 2^(n-1) + 1 distinct queries.
    """
    seen: dict[int, int] = {}  # output -> the one input queried for it so far
    space = 1 << oracle.n
    while True:
        w = rng.randrange(space)
        first = seen.setdefault(simon_eval(oracle, w), w)
        if first != w:  # w is new, so the queries are the inputs in seen and w
            return ClassicalResult(queries=len(seen) + 1, a=first ^ w)


def simon_factored_x_probs(
    oracle: SimonOracle, phi0: np.ndarray, phi1: np.ndarray, y: int
) -> np.ndarray:
    """Exact x-outcome distribution of the input register given output y.

    The y-conditional reference that tests average to check the sampler.
    The unnormalized branch amplitudes are prod_k phi_{g_k(w)}[y_k]; grouping
    the factors by the four (g_k, y_k) bit combinations leaves popcounts.
    """
    g = oracle.outputs()
    c11 = np.bitwise_count(g & y)
    c10 = int(y).bit_count() - c11           # g_k=0, y_k=1
    c01 = np.bitwise_count(g) - c11          # g_k=1, y_k=0
    c00 = oracle.m - c11 - c10 - c01
    phi0 = np.asarray(phi0, dtype=np.complex128)
    phi1 = np.asarray(phi1, dtype=np.complex128)
    alpha = phi0[0] ** c00 * phi1[0] ** c01 * phi0[1] ** c10 * phi1[1] ** c11
    norm = np.linalg.norm(alpha)
    if not norm > 0:
        raise ResampleError("conditional branch weights underflowed to zero")
    alpha = (alpha / norm).reshape(1, -1)
    _fwht_inplace(alpha)
    return np.abs(alpha.reshape(-1)) ** 2


def factored_row(oracle: SimonOracle, phi0: np.ndarray, phi1: np.ndarray, rng: RandomSource) -> int:
    """The next Simon row from ``rng`` at the branch vectors' row-bit probability: a block of one."""
    return _read_factored(oracle, simon_row_bit_prob(phi0, phi1), rng, 1)[0]


def kron_chain(mats) -> np.ndarray:
    """mats[0] (x) mats[1] (x) ...; the first factor holds the most significant bit."""
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def dense_driver(dims: tuple) -> np.ndarray:
    """H_d = 1/2 sum_k (1 - sigma_x^k) on the n_b output qubits, identity on A, from kron_chain."""
    n_a, n_b = dims
    flips = [
        kron_chain([IDENTITY_2 - SIGMA_X if q == k else IDENTITY_2 for q in reversed(range(n_b))])
        for k in range(n_b)
    ]
    b_part = 0.5 * sum(flips, np.zeros((1 << n_b, 1 << n_b)))
    return np.kron(np.eye(1 << n_a), b_part.real)


def interpolate(h: InterpolatedHamiltonian, s: float) -> np.ndarray:
    """Dense H(s) = s*H_p + (1-s)*H_d."""
    return s * np.diag(h.problem_diag) + (1.0 - s) * dense_driver(h.dims)


def level_gap(dense_h: np.ndarray, tol: float = 1e-8) -> float:
    """Gap between the (possibly degenerate) ground level and the next level;
    eigenvalues closer than ``tol`` are one level."""
    evals = np.linalg.eigvalsh(dense_h)
    above = evals[evals > evals[0] + tol]
    return float(above[0] - evals[0]) if above.size else 0.0


# A branch "kind" names one of the two 2x2 blocks that the tests integrate:
#   "bv"     ``TwoLevelBlock``'s, -1 on the target (BV's problem diagonal before
#            schema 14), which ``evolve_two_level`` integrates with no phase and
#            ``protocols._branch_law`` reads;
#   "simon"  the Hamming block, that plus s*1, of every output qubit of either
#            problem, whose pair ``branch_pair`` returns.


def two_level(kind: str, f_bit: int, s: float) -> np.ndarray:
    """The 2x2 branch Hamiltonian of a "bv" or "simon" kind at parameter s:
    ``TwoLevelBlock``'s for "bv", and the Hamming-encoded one, written out
    independently, for "simon"."""
    sign = -1.0 if f_bit else 1.0
    driver = 0.5 * (1.0 - s) * (IDENTITY_2 - SIGMA_X)
    if kind == "bv":
        return driver - 0.5 * s * (IDENTITY_2 + sign * SIGMA_Z)
    return driver + 0.5 * s * (IDENTITY_2 - sign * SIGMA_Z)


def problem_phase(kind: str, total_time: float) -> complex:
    """The factor a "bv" or "simon" kind's branch carries over ``evolve_two_level``'s:
    the Hamming block's s*1 offset integrates to T/2."""
    return 1.0 if kind == "bv" else cmath.exp(-0.5j * total_time)


def kind_pair(kind: str, total_time: float, steps: int) -> tuple:
    """(phi_0, phi_1) of a "bv" or "simon" kind: ``evolve_two_level``'s pair, or ``branch_pair``'s."""
    if kind == "simon":
        return branch_pair(total_time, steps)
    phi0 = evolve_two_level(TwoLevelBlock(0), Schedule(total_time, steps))
    return phi0, phi0[::-1].copy()


def exact_branch(kind: str, total_time: float) -> np.ndarray:
    """The f_bit = 0 branch at time T from |+>, with no step error.

    H(t/T) is affine in t, so i c' = (A + B t) c.  About each segment start
    t_j the solution is a Taylor series whose scaled terms b_k = a_k h^k obey
    (k+1) b_(k+1) = -i h (A_j b_k + h B b_(k-1)); the series is entire, so it
    is summed over segments of length at most 0.25 until the terms fall
    below 1e-17 of the state.
    """
    start, end = two_level(kind, 0, 0.0), two_level(kind, 0, 1.0)
    slope = (end - start) / total_time
    segments = math.ceil(total_time / 0.25)
    h = total_time / segments
    c = np.full(2, math.sqrt(0.5), dtype=np.complex128)
    for j in range(segments):
        a_j = start + (end - start) * (j / segments)
        prev, term, total = np.zeros(2, dtype=np.complex128), c, c.copy()
        k = 0
        while np.max(np.abs(term)) > 1e-17 or np.max(np.abs(prev)) > 1e-17:
            prev, term = term, -1j * h * (a_j @ term + h * (slope @ prev)) / (k + 1)
            total += term
            k += 1
        c = total
    return c


def unmirrored_branch(kind: str, f_bit: int, sched: Schedule) -> np.ndarray:
    """``kind_pair(kind, ...)[f_bit]`` without the mirror: all N steps built
    by ``_su2_steps`` and multiplied one by one in Python complex arithmetic,
    then times ``problem_phase``."""
    a, b = 1 + 0j, 0j
    for a2, b2 in zip(*_su2_steps(TwoLevelBlock(f_bit), sched, 0, sched.steps).tolist()):
        a, b = a2 * a - b2 * b.conjugate(), a2 * b + b2 * a.conjugate()
    x = y = math.sqrt(0.5)
    u = np.array([a * x + b * y, a.conjugate() * y - b.conjugate() * x])
    return u * problem_phase(kind, sched.total_time)


def random_state(num_qubits_a: int, num_qubits_b: int, seed: int) -> StateVector:
    """Haar-ish normalized random state (Gaussian amplitudes)."""
    total = num_qubits_a + num_qubits_b
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << total) + 1j * rng.normal(size=1 << total)
    amps /= np.linalg.norm(amps)
    return StateVector(num_qubits_a, num_qubits_b, amps)


def gf2_rank(rows, n: int) -> int:
    """Rank over GF(2) by column-by-column elimination on a 0/1 matrix."""
    bits = np.array([[(row >> k) & 1 for k in range(n)] for row in rows], dtype=np.uint8)
    bits = bits.reshape(-1, n)
    rank = 0
    for col in range(n):
        pivots = np.flatnonzero(bits[rank:, col]) + rank
        if pivots.size == 0:
            continue
        bits[[rank, pivots[0]]] = bits[[pivots[0], rank]]
        others = np.flatnonzero(bits[:, col])
        bits[others[others != rank]] ^= bits[rank]
        rank += 1
    return rank


def gf2_nullspace(rows, n: int) -> list:
    """Every nonzero v with row . v = 0 (mod 2) for all rows, by trying all 2^n - 1."""
    return [v for v in range(1, 1 << n) if all((row & v).bit_count() % 2 == 0 for row in rows)]


def array_block_read(oracle, q: float, rng: RandomSource, shots: int) -> list:
    """The next ``shots`` Simon rows read as an array at any block length: one
    (shots, width) fill, the z bits off ``_row_bits``, and each row by
    ``simon_orthogonal_row`` or, scrambled, by ``_scrambled_row`` with the
    shot's last uniform."""
    m = oracle.n - 1
    u = np.empty((shots, m + (oracle.scramble is not None)))
    rng.fill(u)
    zs = _row_bits(q, u[:, :m])
    if oracle.scramble is None:
        return [simon_orthogonal_row(oracle, z) for z in zs]
    return [_scrambled_row(oracle, z, w) for z, w in zip(zs, u[:, m].tolist())]


def reference_run(cfg) -> dict:
    """A factored run's report, without wall_time, read one shot at a time.

    The shots draw in order from one ``RandomSource(seed, 1)``, absorbed until
    a mask is found or the repeat budget runs out.  A BV shot is informative
    iff its one uniform is below q, the documented draw; a Simon shot is one
    ``factored_row``.
    """
    cfg = resolve_config(cfg)
    # branch_pair's pair is this one times a global phase, which q and the
    # fidelity drop, so a run of either problem reads the unphased pair
    phi0, phi1 = kind_pair("bv", cfg.total_time, cfg.steps)
    if cfg.problem == "bv":
        q, m = simon_row_bit_prob(phi0, phi1), 1
    else:
        oracle, m = simon_build(cfg.n, cfg.a, cfg.scramble_seed), cfg.n - 1
        system = Gf2Matrix(cfg.n)
    found, shots, rng = None, cfg.max_repeats, RandomSource(cfg.seed, 1)
    for i in range(cfg.max_repeats):
        if cfg.problem == "bv":
            found = cfg.a if rng.uniform() < q else None
        else:
            system.add_row(factored_row(oracle, phi0, phi1, rng))
            found = recover_mask(system)
        if found is not None:
            shots = i + 1
            break
    return dict(
        success=found == cfg.a,
        recovered_a=found,
        quantum_runs=shots,
        restarts=shots - (found is not None) if cfg.problem == "bv" else 0,
        rows_collected=0 if cfg.problem == "bv" else shots,
        per_run_fidelity=float(abs(phi0[0] ** m) ** 2),
    )
