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
