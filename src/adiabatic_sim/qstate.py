"""Complex state vectors over qubit registers and the fast Walsh-Hadamard transform.

A state lives on two tensored registers: register A with ``num_qubits_a``
qubits (the input register) and register B with ``num_qubits_b`` qubits (the
output register).  Amplitudes are stored densely, indexed by

    index = w * 2**num_qubits_b + y

where ``w`` labels the A basis state and ``y`` the B basis state; bit ``k`` of
an integer label is the value of qubit ``k`` of that register.  |0> is the
spin-up (+z) state, so sigma_z |0> = +|0>.

Everything here is a pure function on immutable inputs; no operation writes
to its arguments.

``check_capacity`` is the one memory rule of the package.  The factored path
holds no 2^n array; only three objects do: the full path's state (and its
Krylov vectors), the gap scan's Hamiltonian and a scrambled Simon oracle's
label table.  Each is refused above DENSE_QUBIT_CAP qubits before anything
is allocated.  (The gap scan's dense matrices have a tighter run-time bound,
``hamiltonians.DENSE_OPERATOR_CAP``.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, ShapeError

# Memory: no array of 2^n entries is built above this many qubits.  At the
# cap the full path holds KRYLOV_MAX + 1 Krylov vectors of 2^20 amplitudes,
# 272 MiB.
DENSE_QUBIT_CAP = 20

SQRT_HALF = 1.0 / math.sqrt(2.0)

IDENTITY_2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) * SQRT_HALF


def check_capacity(qubits: int) -> None:
    """Refuse a dense array over ``qubits`` qubits above DENSE_QUBIT_CAP."""
    if qubits > DENSE_QUBIT_CAP:
        raise CapacityError(
            f"a dense array on {qubits} qubits exceeds the cap of {DENSE_QUBIT_CAP}"
        )


@dataclass(frozen=True)
class StateVector:
    """Dense amplitude vector over an (A, B) register pair.

    ``amps`` has length 2**(num_qubits_a + num_qubits_b); either register may
    be empty.  Amplitudes must be finite; normalization is the caller's
    responsibility (operator application legitimately produces unnormalized
    vectors).
    """

    num_qubits_a: int
    num_qubits_b: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits_a < 0 or self.num_qubits_b < 0:
            raise DomainError("register sizes must be non-negative")
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.num_qubits,):
            raise ShapeError(
                f"expected {1 << self.num_qubits} amplitudes, got {amps.shape}"
            )
        if not np.isfinite(amps.view(np.float64)).all():
            raise DomainError("amplitudes must be finite")
        object.__setattr__(self, "amps", amps)

    @property
    def num_qubits(self) -> int:
        return self.num_qubits_a + self.num_qubits_b

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def as_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (2**n_a, 2**n_b); A indexes rows."""
        return self.amps.reshape(1 << self.num_qubits_a, 1 << self.num_qubits_b)


def plus_state(num_qubits_a: int, num_qubits_b: int) -> StateVector:
    """|+>^(n_a) (x) |+>^(n_b): the uniform superposition with all-positive amplitudes."""
    total = num_qubits_a + num_qubits_b
    check_capacity(total)
    dim = 1 << total
    amps = np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
    return StateVector(num_qubits_a, num_qubits_b, amps)


def inner(u: StateVector, v: StateVector) -> complex:
    """<u|v>, conjugate-linear in the first argument."""
    if u.dim != v.dim:
        raise ShapeError(f"dimension mismatch: {u.dim} vs {v.dim}")
    return complex(np.vdot(u.amps, v.amps))


def fidelity(u: StateVector, v: StateVector) -> float:
    """|<u|v>|^2."""
    return abs(inner(u, v)) ** 2


def _fwht_inplace(block: np.ndarray) -> None:
    """Normalized Walsh-Hadamard butterfly along the last axis (length 2**m).

    O(m * 2**m) amplitude operations; each level pairs indices differing in
    one bit.
    """
    m_dim = block.shape[-1]
    h = 1
    while h < m_dim:
        view = block.reshape(block.shape[:-1] + (m_dim // (2 * h), 2, h))
        top = view[..., 0, :].copy()
        bot = view[..., 1, :].copy()
        view[..., 0, :] = top + bot
        view[..., 1, :] = top - bot
        h *= 2
    block *= m_dim ** -0.5


def fwht_subsystem(psi: StateVector, subsystem: str) -> StateVector:
    """Apply the normalized Hadamard transform to every qubit of one register.

    ``subsystem`` is "A" or "B".  Applying twice returns the input (the
    transform is an involution).
    """
    if subsystem not in ("A", "B"):
        raise DomainError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    n_sub = psi.num_qubits_a if subsystem == "A" else psi.num_qubits_b
    if n_sub == 0:
        return StateVector(psi.num_qubits_a, psi.num_qubits_b, psi.amps.copy())
    mat = psi.as_matrix().copy()
    if subsystem == "A":
        mat = np.ascontiguousarray(mat.T)
        _fwht_inplace(mat)
        mat = mat.T
    else:
        _fwht_inplace(mat)
    return StateVector(psi.num_qubits_a, psi.num_qubits_b, mat.reshape(-1))
