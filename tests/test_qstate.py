"""State-vector kernel tests: index convention, inner products, FWHT."""

import numpy as np
import pytest

from adiabatic_sim.errors import CapacityError, DomainError, ShapeError
from adiabatic_sim.qstate import (
    DENSE_QUBIT_CAP,
    HADAMARD,
    StateVector,
    fidelity,
    fwht_subsystem,
    inner,
    plus_state,
)
from helpers import random_state

S2 = 1.0 / np.sqrt(2.0)


def qubit(b: int) -> StateVector:
    return StateVector(1, 0, np.eye(2)[b])


def test_inner_orthonormality():
    assert inner(qubit(0), qubit(0)) == pytest.approx(1.0)
    assert inner(qubit(0), qubit(1)) == pytest.approx(0.0)
    plus = StateVector(1, 0, np.array([S2, S2]))
    minus = StateVector(1, 0, np.array([S2, -S2]))
    assert abs(inner(plus, minus)) < 1e-15


def test_inner_conjugate_linear_first_argument():
    u = random_state(2, 0, 3)
    v = random_state(2, 0, 4)
    scaled = StateVector(2, 0, (0.3 + 0.4j) * u.amps)
    assert inner(scaled, v) == pytest.approx(np.conj(0.3 + 0.4j) * inner(u, v))
    assert inner(u, u) == pytest.approx(u.norm_sq())


def test_inner_shape_mismatch():
    with pytest.raises(ShapeError):
        inner(qubit(0), plus_state(2, 0))


def test_fwht_single_qubit():
    psi = fwht_subsystem(qubit(0), "A")
    np.testing.assert_allclose(psi.amps, [S2, S2], atol=1e-15)


def test_fwht_involution():
    psi = random_state(3, 0, 7)
    back = fwht_subsystem(fwht_subsystem(psi, "A"), "A")
    assert np.max(np.abs(back.amps - psi.amps)) <= 1e-12


@pytest.mark.parametrize("n_a,n_b,subsystem", [(3, 0, "A"), (2, 3, "B"), (3, 2, "A"), (1, 1, "B")])
def test_fwht_matches_dense_hadamard(n_a, n_b, subsystem):
    # oracle: explicit Kronecker-built Hadamard matrix on the chosen register
    psi = random_state(n_a, n_b, 42 + n_a + n_b)
    n_sub = n_a if subsystem == "A" else n_b
    h_sub = np.eye(1)
    for _ in range(n_sub):
        h_sub = np.kron(h_sub, HADAMARD)
    if subsystem == "A":
        op = np.kron(h_sub, np.eye(1 << n_b))
    else:
        op = np.kron(np.eye(1 << n_a), h_sub)
    expected = op @ psi.amps
    got = fwht_subsystem(psi, subsystem)
    assert np.max(np.abs(got.amps - expected)) <= 1e-10


def test_fwht_dense_agreement_larger_register():
    psi = random_state(10, 0, 5)
    h_sub = np.eye(1)
    for _ in range(10):
        h_sub = np.kron(h_sub, HADAMARD)
    expected = h_sub @ psi.amps
    got = fwht_subsystem(psi, "A")
    assert np.max(np.abs(got.amps - expected)) <= 1e-10


def test_fwht_preserves_norm():
    psi = random_state(4, 2, 9)
    out = fwht_subsystem(psi, "B")
    assert abs(out.norm_sq() - 1.0) <= 1e-12


def test_basis_convention_round_trip():
    # bit k of a label is qubit k, and a Kronecker chain of single qubits,
    # highest bit first, lands on that label's index
    for w in range(8):
        chain = np.ones(1)
        for k in (2, 1, 0):
            chain = np.kron(chain, qubit((w >> k) & 1).amps)
        assert np.flatnonzero(chain).tolist() == [w]
    # register A indexes rows: index = w * 2**n_b + y
    psi = StateVector(2, 1, np.kron(np.eye(4)[0b10], np.eye(2)[1]))
    assert np.flatnonzero(psi.amps).tolist() == [0b10 * 2 + 1]
    assert psi.as_matrix()[0b10, 1] == 1.0


def test_plus_state_is_uniform_and_capped():
    np.testing.assert_allclose(plus_state(2, 1).amps, 8 ** -0.5, atol=1e-15)
    with pytest.raises(CapacityError):
        plus_state(DENSE_QUBIT_CAP, 1)


def test_state_vector_validation():
    with pytest.raises(ShapeError):
        StateVector(1, 1, np.zeros(3, dtype=complex))
    with pytest.raises(DomainError):
        StateVector(1, 0, np.array([np.nan, 0.0]))


def test_fidelity_of_identical_states():
    psi = random_state(2, 1, 8)
    assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)
