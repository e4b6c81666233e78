"""Schrodinger propagation under the linear annealing schedule (hbar = 1).

Two integration paths solve i d|psi>/dt = H(t/T) |psi>:

* ``evolve_full`` steps the dense state with the exact unitary
  exp(-i dt H(s_mid)) of the Hamiltonian frozen at each step's midpoint,
  computed by Hermitian eigendecomposition.  Unitary by construction, with
  global error O(dt^2) from the freezing.

* ``evolve_two_level`` integrates one decoupled branch qubit with the same
  midpoint rule but a closed-form 2x2 exponential.  Because the full
  Hamiltonian is block diagonal in the input register and the output qubits
  are uncoupled, a full run is exactly the assembly of these branch
  evolutions; ``assemble_bv``/``assemble_simon`` build that product state.

Phases are propagated exactly and never gauged away.  The two branch
evolutions are related by phi_1 = sigma_x phi_0 at every time (conjugating
the branch Hamiltonian by sigma_x flips its f_bit while fixing the |+>
initial state), which is what makes the assembled superposition carry no
spurious relative phases.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .errors import DomainError, IntegrationError, ShapeError
from .hamiltonians import InterpolatedHamiltonian, TwoLevelBlock
from .oracles import BvMask, SimonOracle, simon_eval, simon_eval_all
from .qstate import DEFAULT_QUBIT_CAP, StateVector, check_capacity, fidelity

# A run whose norm drifts past this is reported as an integration failure.
NORM_DRIFT_LIMIT = 1e-6


@dataclass(frozen=True)
class Schedule:
    """Linear ramp s(t) = t/T discretized into ``steps`` equal slices."""

    total_time: float
    steps: int

    def __post_init__(self) -> None:
        if not self.total_time > 0:
            raise DomainError("total_time must be positive")
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


def evolve_full(
    h: InterpolatedHamiltonian,
    psi0: StateVector,
    sched: Schedule,
    target: Optional[StateVector] = None,
) -> EvolutionResult:
    """Brute-force dense propagation of the whole register pair."""
    dim = h.problem.shape[0]
    if psi0.dim != dim or h.dims != (psi0.num_qubits_a, psi0.num_qubits_b):
        raise ShapeError(
            f"state on registers {(psi0.num_qubits_a, psi0.num_qubits_b)} does not "
            f"match Hamiltonian on {h.dims}"
        )
    if abs(psi0.norm_sq() - 1.0) > 1e-6:
        raise DomainError("initial state must be normalized")

    psi = psi0.amps.copy()
    dt = sched.dt
    drift = 0.0
    for s in sched.midpoints():
        h_s = s * h.problem + (1.0 - s) * h.driver
        evals, vecs = np.linalg.eigh(h_s)
        psi = vecs @ (np.exp(-1j * dt * evals) * (vecs.conj().T @ psi))
        drift = max(drift, abs(float(np.vdot(psi, psi).real) - 1.0))
    if drift > NORM_DRIFT_LIMIT:
        raise IntegrationError(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.0e}")

    final = StateVector(psi0.num_qubits_a, psi0.num_qubits_b, psi)
    fid = fidelity(target, final) if target is not None else None
    return EvolutionResult(final_state=final, norm_drift=drift, fidelity_to_target=fid)


def evolve_two_level(block: TwoLevelBlock, sched: Schedule) -> np.ndarray:
    """Evolve one branch qubit from |+> and return its final 2-vector.

    The step unitary exp(-i dt (c*1 + vx*sigma_x + vz*sigma_z)) is applied in
    closed form:  e^(-i c dt) [cos(r dt) - i sin(r dt) vhat.sigma] with
    r = |v|.  Scalar arithmetic keeps the per-step cost trivial, so a 2^18
    step reference run is cheap.
    """
    sign = -1.0 if block.f_bit else 1.0
    is_bv = block.kind == "bv"
    steps = sched.steps
    dt = sched.dt

    u0 = complex(math.sqrt(0.5))
    u1 = complex(math.sqrt(0.5))
    drift = 0.0
    for j in range(steps):
        s = (j + 0.5) / steps
        vx = -0.5 * (1.0 - s)
        vz = -0.5 * s * sign
        c = 0.5 * (1.0 - 2.0 * s) if is_bv else 0.5
        r = math.hypot(vx, vz)
        theta = r * dt
        cos_t = math.cos(theta)
        sn = math.sin(theta) / r
        phase = cmath.exp(-1j * c * dt)
        a_diag = -1j * sn * vz
        a_off = -1j * sn * vx
        new0 = phase * ((cos_t + a_diag) * u0 + a_off * u1)
        new1 = phase * (a_off * u0 + (cos_t - a_diag) * u1)
        u0, u1 = new0, new1
        drift = max(drift, abs(abs(u0) ** 2 + abs(u1) ** 2 - 1.0))
    if drift > NORM_DRIFT_LIMIT:
        raise IntegrationError(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.0e}")
    return np.array([u0, u1], dtype=np.complex128)


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

    Materializes all 2^(2n-1) amplitudes; beyond the cap use
    ``simon_branch_amplitude`` instead.
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


def simon_branch_amplitude(
    oracle: SimonOracle, phi0: np.ndarray, phi1: np.ndarray, w: int, y: int
) -> complex:
    """Single amplitude <w, y|psi> of the factored Simon state, O(n) time."""
    g = simon_eval(oracle, w)
    amp = complex(1.0 / math.sqrt(1 << oracle.n))
    for k in range(oracle.n - 1):
        phi = phi1 if (g >> k) & 1 else phi0
        amp *= phi[(y >> k) & 1]
    return amp
