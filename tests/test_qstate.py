"""State-vector kernel tests: index convention, inner products, FWHT."""

import numpy as np
import pytest

from adiabatic_sim.errors import CapacityError, DomainError, ShapeError
from adiabatic_sim.measurement import rotate_output
from adiabatic_sim.qstate import DENSE_QUBIT_CAP, StateVector, _fwht_inplace, plus_state
from helpers import HADAMARD, fidelity, inner, kron_chain, random_state

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
    block = qubit(0).amps.copy()
    _fwht_inplace(block)
    np.testing.assert_allclose(block, [S2, S2], atol=1e-15)


def test_fwht_involution():
    psi = random_state(3, 0, 7)
    back = psi.amps.copy()
    _fwht_inplace(back)
    _fwht_inplace(back)
    assert np.max(np.abs(back - psi.amps)) <= 1e-12


@pytest.mark.parametrize("n_a,n_b", [(2, 3), (1, 1)])
def test_fwht_matches_dense_hadamard(n_a, n_b):
    # oracle: explicit Kronecker-built Hadamard matrix on the output register,
    # which rotate_output transforms
    psi = random_state(n_a, n_b, 42 + n_a + n_b)
    op = np.kron(np.eye(1 << n_a), kron_chain([HADAMARD] * n_b))
    expected = op @ psi.amps
    rotated, _ = rotate_output(psi)
    assert np.max(np.abs(rotated.reshape(-1) - expected)) <= 1e-10


def test_fwht_dense_agreement_larger_register():
    psi = random_state(10, 0, 5)
    expected = kron_chain([HADAMARD] * 10) @ psi.amps
    got = psi.amps.copy()
    _fwht_inplace(got)
    assert np.max(np.abs(got - expected)) <= 1e-10


def two_copy_fwht(block: np.ndarray) -> None:
    """The butterfly with both halves copied per level, as written before its
    levels held one temporary."""
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


@pytest.mark.parametrize("shape", [(1,), (2,), (64,), (1, 2), (512, 2), (8, 128), (128, 8), (3, 1024)])
def test_fwht_is_bit_identical_to_the_two_copy_butterfly(shape):
    rng = np.random.default_rng(sum(shape))
    block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    block[..., ::3] *= 1e-9  # mixed magnitudes, so the sums round
    expected = block.copy()
    two_copy_fwht(expected)
    _fwht_inplace(block)
    assert np.array_equal(block, expected)


def test_fwht_preserves_norm():
    psi = random_state(4, 2, 9)
    rotated, marginal = rotate_output(psi)
    assert abs(np.vdot(rotated, rotated).real - 1.0) <= 1e-12
    assert abs(marginal.sum() - 1.0) <= 1e-12


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
