"""Schrodinger propagation under the linear annealing schedule (hbar = 1).

Two integration paths solve i d|psi>/dt = H(t/T) |psi>:

* ``evolve_full`` steps the dense state with the unitary exp(-i dt H(s_mid))
  of the Hamiltonian frozen at each step's midpoint, computed to round-off by
  a short Lanczos (Krylov) iteration that applies H(s) without a matrix
  (Park & Light, J. Chem. Phys. 85, 5870 (1986); Hochbruck & Lubich, SIAM J.
  Numer. Anal. 34, 1911 (1997)).  Global error O(dt^2) from the freezing.

* ``evolve_two_level`` integrates one decoupled branch qubit with the same
  midpoint rule but a closed-form 2x2 exponential.  Each step is a scalar
  phase times an SU(2) matrix, stored as the pair (a, b) of its first row;
  the pairs of all steps are computed as arrays and multiplied by a
  pairwise product tree, whose last at most SCAN_TAIL factors are taken in a
  scalar loop, and the phases, whose product has a closed form, are applied
  once at the end.  Because the full Hamiltonian is block diagonal in the
  input register and the output qubits are uncoupled, a full run is exactly
  the assembly of these branch evolutions; ``assemble_bv``/``assemble_simon``
  build that product state.

Phases are propagated exactly and never gauged away.  The two branch
evolutions are related by phi_1 = sigma_x phi_0 at every time (conjugating
the branch Hamiltonian by sigma_x flips its f_bit while fixing the |+>
initial state), which is what makes the assembled superposition carry no
spurious relative phases.  ``evolve_two_level`` keeps the identity to the
bit (see ``_su2_product``: its array levels and its scalar tail alike are
exact under sigma_x conjugation), so one evolution serves both branches.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import partial, reduce
from typing import Optional

import numpy as np

from .errors import DomainError, IntegrationError, ShapeError
from .hamiltonians import InterpolatedHamiltonian, TwoLevelBlock
from .oracles import BvMask, SimonOracle, bv_eval_all, simon_eval_all
from .qstate import StateVector, check_capacity, fidelity

# A run whose norm drifts past this is reported as an integration failure.
NORM_DRIFT_LIMIT = 1e-6
# A Lanczos step stops once its residual estimate is this small; a step whose
# Krylov space reaches KRYLOV_MAX vectors unconverged is split in two, at most
# MAX_STEP_SPLITS times in a row.
KRYLOV_TOL = 1e-13
KRYLOV_MAX = 16
MAX_STEP_SPLITS = 30
# evolve_two_level builds and multiplies the SU(2) steps of this many steps at
# a time, so its traced peak stays near 1 MiB at any step count (1,026 KiB).
# The default 5000 steps fit one chunk (48 ns a step; 67 ns in chunks of 2^12).
TWO_LEVEL_CHUNK = 1 << 13
# _su2_product multiplies its last at most this many factors one by one in
# Python complex arithmetic, about 0.3 us each, where a further array level
# costs 3 to 6 us, mostly call overhead: 5000 steps take 7 array levels and a
# 40-step tail (88 us in all).  16, 32, 48, 96 and 128 were no faster.
SCAN_TAIL = 64


@dataclass(frozen=True)
class Schedule:
    """Linear ramp s(t) = t/T discretized into ``steps`` equal slices."""

    total_time: float
    steps: int

    def __post_init__(self) -> None:
        if not (self.total_time > 0 and math.isfinite(self.total_time)):
            raise DomainError("total_time must be positive and finite")
        try:
            operator.index(self.steps)  # numpy integers pass, floats do not
        except TypeError:
            raise DomainError(f"steps must be an integer, got {self.steps!r}") from None
        if self.steps < 1:
            raise DomainError("steps must be at least 1")

    @property
    def dt(self) -> float:
        return self.total_time / self.steps

    def midpoints(self) -> np.ndarray:
        return (np.arange(self.steps) + 0.5) / self.steps


@dataclass(frozen=True)
class EvolutionResult:
    final_state: StateVector
    norm_drift: float
    fidelity_to_target: Optional[float] = None


def _apply_h(
    diag_s: np.ndarray, half_drive: float, n_b: int, psi: np.ndarray, out: np.ndarray
) -> None:
    """out = H(s) psi = diag_s psi - half_drive * sum_k X_k psi, matrix-free.

    diag_s folds s*H_p and the driver's constant part into one diagonal; X_k
    flips output qubit k by reversing one axis of a reshaped view.
    """
    np.multiply(diag_s, psi, out=out)
    scaled = half_drive * psi
    for k in range(n_b):
        view = out.reshape(-1, 2, 1 << k)
        view -= scaled.reshape(-1, 2, 1 << k)[:, ::-1]


def _lanczos_expm(apply_h, psi: np.ndarray, tau: float, basis: np.ndarray):
    """exp(-i tau H) psi from a Krylov space of at most KRYLOV_MAX vectors, or None.

    Lanczos with full reorthogonalization builds the tridiagonal projection T
    of H; the step has converged once the residual estimate
    beta_k |[exp(-i tau T) e_1]_k| is at most KRYLOV_TOL |psi|.  The small
    exponential is only evaluated once the leading Taylor term of that entry,
    tau^k beta_0 ... beta_(k-1) / k!, or beta_k alone says it may have.
    ``basis`` is scratch space of KRYLOV_MAX + 1 rows.
    """
    norm = math.sqrt(float(np.vdot(psi, psi).real))
    tri = np.zeros((KRYLOV_MAX + 1, KRYLOV_MAX + 1))
    np.multiply(psi, 1.0 / norm, out=basis[0])
    lead = 1.0
    for k in range(KRYLOV_MAX):
        prior, w = basis[: k + 1], basis[k + 1]
        apply_h(basis[k], w)
        if k:
            w -= tri[k - 1, k] * basis[k - 1]
        alpha = float(np.vdot(basis[k], w).real)
        w -= alpha * basis[k]
        w -= (prior @ w.conj()).conj() @ prior
        beta = math.sqrt(float(np.vdot(w, w).real))
        tri[k, k] = alpha
        if beta * min(lead, 1.0) <= KRYLOV_TOL:
            evals, vecs = np.linalg.eigh(tri[: k + 1, : k + 1])
            coeffs = vecs @ (np.exp(-1j * tau * evals) * vecs[0])
            if beta * abs(coeffs[k]) <= KRYLOV_TOL:
                return norm * (coeffs @ prior)
        tri[k, k + 1] = tri[k + 1, k] = beta
        w *= 1.0 / beta
        lead *= tau * beta / (k + 1)
    return None


def _krylov_step(apply_h, psi: np.ndarray, tau: float, basis: np.ndarray, depth: int = 0):
    """exp(-i tau H) psi; an unconverged step is split into two equal halves,
    whose product is the same unitary."""
    out = _lanczos_expm(apply_h, psi, tau, basis)
    if out is None:
        if depth == MAX_STEP_SPLITS:
            raise IntegrationError(f"Lanczos step unconverged after {depth} splits")
        half = _krylov_step(apply_h, psi, tau / 2, basis, depth + 1)
        out = _krylov_step(apply_h, half, tau / 2, basis, depth + 1)
    return out


def evolve_full(
    h: InterpolatedHamiltonian,
    psi0: StateVector,
    sched: Schedule,
    target: Optional[StateVector] = None,
) -> EvolutionResult:
    """Brute-force propagation of the whole register pair, matrix-free.

    Each step applies exp(-i dt H(s_mid)) by a Lanczos iteration on H(s_mid)
    applied as a diagonal plus output-qubit flips; no 2^N x 2^N matrix is
    built.  Block diagonality in the input register is not used, so the
    result is an independent check of the factored path.
    """
    n_b = h.dims[1]
    registers = (psi0.num_qubits_a, psi0.num_qubits_b)
    if h.dims != registers or h.problem_diag.shape != (psi0.dim,):
        raise ShapeError(
            f"state on registers {registers} does not match Hamiltonian on {h.dims}"
        )
    if abs(psi0.norm_sq() - 1.0) > 1e-6:
        raise DomainError("initial state must be normalized")

    psi = psi0.amps.copy()
    basis = np.empty((KRYLOV_MAX + 1, psi.size), dtype=np.complex128)
    dt = sched.dt
    drift = 0.0
    for s in sched.midpoints():
        diag_s = s * h.problem_diag + 0.5 * n_b * (1.0 - s)
        apply_h = partial(_apply_h, diag_s, 0.5 * (1.0 - s), n_b)
        psi = _krylov_step(apply_h, psi, dt, basis)
        # np.maximum keeps a NaN, where max(0.0, nan) would drop it
        drift = float(np.maximum(drift, abs(np.vdot(psi, psi).real - 1.0)))
    if not drift <= NORM_DRIFT_LIMIT:
        raise IntegrationError(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.0e}")

    final = StateVector(psi0.num_qubits_a, psi0.num_qubits_b, psi)
    fid = fidelity(target, final) if target is not None else None
    return EvolutionResult(final_state=final, norm_drift=drift, fidelity_to_target=fid)


def _su2_product(m: np.ndarray) -> tuple[complex, complex]:
    """(a, b) of V_(n-1) ... V_1 V_0, the product of the n steps ``m[:, j] = (a, b)``.

    Step j's SU(2) matrix V = [[a, b], [-conj(b), conj(a)]] maps a state (x, y)
    to (a x + b y, conj(a) y - conj(b) x), and V2 V1 has the first row
    (a2 a1 - b2 conj(b1), a2 b1 + b2 conj(a1)).  Each level of a pairwise
    product tree multiplies adjacent factors so in array passes and carries
    an unpaired last one up unchanged, until at most SCAN_TAIL are left to
    multiply one by one in Python complex arithmetic.  Conjugating a step by
    sigma_x maps (a, b) to (conj(a), -conj(b)); each sum here then adds the
    conjugates, negated where the map negates, of the same terms in the same
    order, which IEEE rounding (in numpy and in CPython's complex type alike)
    keeps exact, so the conjugated steps multiply to the conjugated product
    bit for bit.
    """
    while m.shape[-1] > SCAN_TAIL:
        n = m.shape[-1]
        k = n // 2
        (a, b), (later_a, later_b) = m[:, 0 : 2 * k : 2], m[:, 1::2]
        pairs = np.empty((2, k + n % 2), dtype=np.complex128)
        pair_a, pair_b = pairs[:, :k]
        term = np.conjugate(b)
        term *= later_b
        np.multiply(later_a, a, out=pair_a)
        pair_a -= term
        np.conjugate(a, out=term)
        term *= later_b
        np.multiply(later_a, b, out=pair_b)
        pair_b += term
        if n % 2:
            pairs[:, k] = m[:, -1]
        m = pairs
    steps = zip(*m.tolist())
    a, b = next(steps)
    for a2, b2 in steps:
        a, b = a2 * a - b2 * b.conjugate(), a2 * b + b2 * a.conjugate()
    return a, b


def _su2_steps(block: TwoLevelBlock, sched: Schedule, start: int, stop: int) -> np.ndarray:
    """(a, b) of the SU(2) step matrices of steps start..stop-1, shape (2, stop - start)."""
    s = (np.arange(start, stop) + 0.5) / sched.steps
    vx = -0.5 * (1.0 - s)
    vz = (-0.5 if block.f_bit == 0 else 0.5) * s
    r = np.sqrt(vx * vx + vz * vz)  # a third of np.hypot's time; no overflow at |v| <= 1/2
    theta = r * sched.dt
    minus_sn = np.sin(theta)
    minus_sn /= -r
    m = np.empty((2, stop - start), dtype=np.complex128)
    np.cos(theta, out=m[0].real)
    np.multiply(minus_sn, vz, out=m[0].imag)
    m[1].real = 0.0
    np.multiply(minus_sn, vx, out=m[1].imag)
    return m


def evolve_two_level(block: TwoLevelBlock, sched: Schedule) -> np.ndarray:
    """Evolve one branch qubit from |+> and return its final 2-vector.

    The step unitary exp(-i dt (c*1 + vx*sigma_x + vz*sigma_z)) is
    e^(-i c dt) V with V = cos(r dt) - i sin(r dt) vhat.sigma in SU(2),
    r = |v|.  The scalar c(s)*1 commutes with every step, so the phases
    multiply to exp(-i dt sum_j c(s_j)), which over the symmetric midpoints
    is exact in closed form: 1 for "bv" (c = (1 - 2s)/2 sums to 0) and
    exp(-i T/2) for "simon" (c = 1/2); it is applied once at the end.  The
    SU(2) parts of TWO_LEVEL_CHUNK steps at a time are built as arrays and
    multiplied by a product tree (``_su2_product``), which is applied once to
    the state carried between chunks, so memory stays bounded at any step
    count.  No state is built per step: each step is sqrt(|a|^2 + |b|^2)
    times a unitary, so the norm-drift check reads the squared norm after
    every step off the running product of those factors, and the final
    state's norm too.
    """
    x = y = math.sqrt(0.5)
    for start in range(0, sched.steps, TWO_LEVEL_CHUNK):
        m = _su2_steps(block, sched, start, min(start + TWO_LEVEL_CHUNK, sched.steps))
        norms = np.square(m[0].real)
        term = np.empty_like(norms)
        for part in (m[0].imag, m[1].real, m[1].imag):
            norms += np.square(part, out=term)
        np.cumprod(norms, out=norms)
        norms *= abs(x) ** 2 + abs(y) ** 2
        a, b = _su2_product(m)
        x, y = a * x + b * y, a.conjugate() * y - b.conjugate() * x
        # np.maximum keeps a NaN, where max(0.0, nan) would drop it; a NaN norm
        # makes both extremes NaN
        final = abs(x) ** 2 + abs(y) ** 2
        drift = float(np.maximum(max(norms.max() - 1.0, 1.0 - norms.min()), abs(final - 1.0)))
        if not drift <= NORM_DRIFT_LIMIT:
            raise IntegrationError(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.0e}")
    u = np.array([x, y])
    if block.kind == "bv":
        return u
    return u * cmath.exp(-0.5j * sched.total_time)


def check_branch_vector(phi: np.ndarray) -> np.ndarray:
    """A normalized complex 2-vector, or ShapeError / DomainError."""
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (2,):
        raise ShapeError("branch vectors must have exactly two amplitudes")
    if abs(float(np.vdot(phi, phi).real) - 1.0) > 1e-6:
        raise DomainError("branch vectors must be normalized")
    return phi


def _assemble(
    n: int, m: int, outputs: np.ndarray, phi0: np.ndarray, phi1: np.ndarray
) -> StateVector:
    """2^(-n/2) sum_w |w> (x) phi_f_1(w) ... phi_f_m(w), given the m-bit outputs f(w)."""
    phi0 = check_branch_vector(phi0)
    phi1 = check_branch_vector(phi1)
    # branch_states[f, y] = prod_k phi_{f_k}[y_k]: a Kronecker power of the
    # 2x2 table P[b, i] = phi_b[i].
    pair = np.vstack([phi0, phi1])
    branch_states = reduce(np.kron, [pair] * m)
    amps = branch_states[outputs, :] / math.sqrt(1 << n)
    return StateVector(n, m, amps.reshape(-1))


def assemble_bv(mask: BvMask, phi0: np.ndarray, phi1: np.ndarray) -> StateVector:
    """Product-form final state 2^(-n/2) sum_w |w> (x) phi_f(w)."""
    check_capacity(mask.n + 1)
    return _assemble(mask.n, 1, bv_eval_all(mask), phi0, phi1)


def assemble_simon(oracle: SimonOracle, phi0: np.ndarray, phi1: np.ndarray) -> StateVector:
    """Product-form final state 2^(-n/2) sum_w |w> (x) (phi_g_0(w) ... phi_g_m(w)).

    Materializes all 2^(2n-1) amplitudes.
    """
    check_capacity(2 * oracle.n - 1)
    return _assemble(oracle.n, oracle.n - 1, simon_eval_all(oracle), phi0, phi1)
