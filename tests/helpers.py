"""Builders shared by the tests."""

import numpy as np

from adiabatic_sim.qstate import StateVector


def random_state(num_qubits_a: int, num_qubits_b: int, seed: int) -> StateVector:
    """Haar-ish normalized random state (Gaussian amplitudes)."""
    total = num_qubits_a + num_qubits_b
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << total) + 1j * rng.normal(size=1 << total)
    amps /= np.linalg.norm(amps)
    return StateVector(num_qubits_a, num_qubits_b, amps)
