"""Schrodinger propagation under the linear annealing schedule (hbar = 1).

Two integration paths solve i d|psi>/dt = H(t/T) |psi>:

* ``evolve_full`` steps the dense state with the unitary exp(-i dt H(s_mid))
  of the Hamiltonian frozen at each step's midpoint, computed to round-off by
  a short Lanczos (Krylov) iteration that applies H(s) without a matrix
  (Park & Light, J. Chem. Phys. 85, 5870 (1986); Hochbruck & Lubich, SIAM J.
  Numer. Anal. 34, 1911 (1997)).  Global error O(dt^2) from the freezing.

* ``evolve_two_level`` integrates one decoupled branch qubit with the same
  midpoint rule but a closed-form 2x2 exponential, computed for all steps as
  arrays and combined by a parallel-prefix product.  Because the full
  Hamiltonian is block diagonal in the input register and the output qubits
  are uncoupled, a full run is exactly the assembly of these branch
  evolutions; ``assemble_bv``/``assemble_simon`` build that product state.

Phases are propagated exactly and never gauged away.  The two branch
evolutions are related by phi_1 = sigma_x phi_0 at every time (conjugating
the branch Hamiltonian by sigma_x flips its f_bit while fixing the |+>
initial state), which is what makes the assembled superposition carry no
spurious relative phases.  ``evolve_two_level`` keeps the identity to the
bit, so one evolution serves both branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from typing import Optional

import numpy as np

from .errors import DomainError, IntegrationError, ShapeError
from .hamiltonians import InterpolatedHamiltonian, TwoLevelBlock
from .oracles import BvMask, SimonOracle, simon_eval_all
from .qstate import DEFAULT_QUBIT_CAP, StateVector, check_capacity, fidelity

# A run whose norm drifts past this is reported as an integration failure.
NORM_DRIFT_LIMIT = 1e-6
# A Lanczos step stops once its residual estimate is this small; a step whose
# Krylov space reaches KRYLOV_MAX vectors unconverged is split in two, at most
# MAX_STEP_SPLITS times in a row.
KRYLOV_TOL = 1e-13
KRYLOV_MAX = 16
MAX_STEP_SPLITS = 30
# evolve_two_level builds and combines the step matrices of this many steps at
# a time, so its arrays stay near 0.3 MB at any step count; larger chunks save
# little time at the default 5000 steps and hold up to 1.5 MB.
TWO_LEVEL_CHUNK = 1 << 10


@dataclass(frozen=True)
class Schedule:
    """Linear ramp s(t) = t/T discretized into ``steps`` equal slices."""

    total_time: float
    steps: int

    def __post_init__(self) -> None:
        if not (self.total_time > 0 and math.isfinite(self.total_time)):
            raise DomainError("total_time must be positive and finite")
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


def _prefix_scan(m: np.ndarray, out: np.ndarray) -> None:
    """Fill out[:, j + 1] = m_j ... m_1 m_0 out[:, 0] for every step j.

    ``m[i, k, j]`` is entry (i, k) of step j's 2x2 matrix.  Adjacent steps are
    multiplied in pairs, the half-length scan fills the even columns (the
    state after each odd step), and each odd column is one step on from the
    column before it (Blelloch, "Prefix sums and their applications", 1990):
    O(steps) work in O(log steps) array passes.  Every product is written
    out entry by entry as a sum of two terms, so conjugating all matrices and
    out[:, 0] by sigma_x only swaps the terms of each sum and swaps the rows
    of ``out`` bit for bit.
    """
    n = m.shape[-1]
    if n > 1:
        later, earlier = m[..., 1::2], m[..., 0 : n - 1 : 2]
        pairs = later[:, 0, None] * earlier[0] + later[:, 1, None] * earlier[1]
        _prefix_scan(pairs, out[:, 0::2])
    step, prev = m[..., 0::2], out[:, 0:n:2]
    out[:, 1::2] = step[:, 0] * prev[0] + step[:, 1] * prev[1]


def _step_matrices(block: TwoLevelBlock, sched: Schedule, start: int, stop: int) -> np.ndarray:
    """The closed-form step matrices of steps start..stop-1, shape (2, 2, stop - start)."""
    sign = -1.0 if block.f_bit else 1.0
    dt = sched.dt
    s = (np.arange(start, stop) + 0.5) / sched.steps
    vx = -0.5 * (1.0 - s)
    vz = -0.5 * s * sign
    c = 0.5 * (1.0 - 2.0 * s) if block.kind == "bv" else 0.5
    r = np.hypot(vx, vz)
    theta = r * dt
    cos_t = np.cos(theta)
    sn = np.sin(theta) / r
    phase = np.exp(-1j * c * dt)
    a_diag = -1j * sn * vz
    m = np.empty((2, 2, stop - start), dtype=np.complex128)
    np.multiply(phase, cos_t + a_diag, out=m[0, 0])
    np.multiply(phase, -1j * sn * vx, out=m[0, 1])
    m[1, 0] = m[0, 1]
    np.multiply(phase, cos_t - a_diag, out=m[1, 1])
    return m


def evolve_two_level(block: TwoLevelBlock, sched: Schedule) -> np.ndarray:
    """Evolve one branch qubit from |+> and return its final 2-vector.

    The step unitary exp(-i dt (c*1 + vx*sigma_x + vz*sigma_z)) is applied in
    closed form:  e^(-i c dt) [cos(r dt) - i sin(r dt) vhat.sigma] with
    r = |v|.  The step matrices of TWO_LEVEL_CHUNK steps at a time are built
    as arrays and combined by a parallel-prefix product (``_prefix_scan``),
    which yields the state after every step for the norm-drift check; the
    last state carries into the next chunk, so memory stays bounded at any
    step count.
    """
    u = np.full(2, math.sqrt(0.5), dtype=np.complex128)
    for start in range(0, sched.steps, TWO_LEVEL_CHUNK):
        stop = min(start + TWO_LEVEL_CHUNK, sched.steps)
        states = np.empty((2, stop - start + 1), dtype=np.complex128)
        states[:, 0] = u
        _prefix_scan(_step_matrices(block, sched, start, stop), states)
        norms = (states.real**2 + states.imag**2).sum(axis=0)
        drift = float(np.max(np.abs(norms - 1.0)))
        if not drift <= NORM_DRIFT_LIMIT:
            raise IntegrationError(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.0e}")
        u = states[:, -1]
    return u.copy()


def check_branch_vector(phi: np.ndarray) -> np.ndarray:
    """A normalized complex 2-vector, or ShapeError / DomainError."""
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (2,):
        raise ShapeError("branch vectors must have exactly two amplitudes")
    if abs(float(np.vdot(phi, phi).real) - 1.0) > 1e-6:
        raise DomainError("branch vectors must be normalized")
    return phi


def assemble_bv(
    mask: BvMask,
    phi0: np.ndarray,
    phi1: np.ndarray,
    cap: int = DEFAULT_QUBIT_CAP,
) -> StateVector:
    """Product-form final state 2^(-n/2) sum_w |w> (x) phi_f(w)."""
    phi0 = check_branch_vector(phi0)
    phi1 = check_branch_vector(phi1)
    n = mask.n
    check_capacity(n + 1, cap)
    w_all = np.arange(1 << n)
    f = (np.bitwise_count(w_all & mask.a) & 1).astype(bool)
    amps = np.where(f[:, None], phi1[None, :], phi0[None, :]) / math.sqrt(1 << n)
    return StateVector(n, 1, amps.reshape(-1))


def assemble_simon(
    oracle: SimonOracle,
    phi0: np.ndarray,
    phi1: np.ndarray,
    cap: int = DEFAULT_QUBIT_CAP,
) -> StateVector:
    """Product-form final state 2^(-n/2) sum_w |w> (x) (phi_g_0(w) ... phi_g_m(w)).

    Materializes all 2^(2n-1) amplitudes.
    """
    phi0 = check_branch_vector(phi0)
    phi1 = check_branch_vector(phi1)
    n = oracle.n
    m = n - 1
    check_capacity(n + m, cap)
    g = np.asarray(simon_eval_all(oracle))
    # branch_states[g, y] = prod_k phi_{g_k}[y_k]: a Kronecker power of the
    # 2x2 table P[b, i] = phi_b[i].
    pair = np.vstack([phi0, phi1])
    branch_states = reduce(np.kron, [pair] * m)
    amps = branch_states[g, :] / math.sqrt(1 << n)
    return StateVector(n, m, amps.reshape(-1))
