"""Hamiltonian builders, the matrix-free product, the two-level reduction, and gap scans."""

import math
import tracemalloc

import numpy as np
import pytest

from adiabatic_sim.errors import DomainError
from adiabatic_sim.hamiltonians import (
    InterpolatedHamiltonian,
    _apply_h,
    _closure,
    gap,
    gap_table,
    interpolated,
    min_gap_scan,
)
from adiabatic_sim.oracles import BvMask, simon_build, simon_eval
from adiabatic_sim.qstate import SIGMA_X, plus_state
from helpers import (
    IDENTITY_2,
    SIGMA_Z,
    bv_eval,
    dense_driver,
    interpolate,
    kron_chain,
    level_gap,
    random_state,
    two_level,
)

S2 = 1.0 / math.sqrt(2.0)


def applied(h, s):
    """H(s) as a matrix: column i is the library's matrix-free product applied to |i>."""
    n_b = h.dims[1]
    diag_s = s * h.problem_diag + 0.5 * n_b * (1.0 - s)
    columns = np.empty((h.problem_diag.size,) * 2)
    for i, basis_vector in enumerate(np.eye(h.problem_diag.size)):
        _apply_h(diag_s, 0.5 * (1.0 - s), n_b, basis_vector, columns[i])
    return columns.T


def test_bv_problem_n1_by_hand():
    # f(0)=0, f(1)=1 for a=1: ground entries sit at |0,0> and |1,1>
    h = applied(interpolated(BvMask(1, 1)), 1.0)
    np.testing.assert_allclose(np.diag(h), [0, 1, 1, 0], atol=1e-15)
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


@pytest.mark.parametrize("n,a", [(1, 1), (2, 2), (3, 5), (4, 11)])
def test_bv_problem_trace_and_spectrum(n, a):
    h = applied(interpolated(BvMask(n, a)), 1.0)
    assert np.trace(h).real == pytest.approx(1 << n)
    evals = np.linalg.eigvalsh(h)
    assert set(np.round(evals, 12)) == {0.0, 1.0}
    assert int(np.sum(np.isclose(evals, 0.0))) == 1 << n  # 2^n-fold ground degeneracy
    np.testing.assert_allclose(h, h.conj().T, atol=1e-12)


def test_bv_driver_annihilates_plus():
    n = 3
    h = applied(interpolated(BvMask(n, 0)), 0.0)
    psi = np.kron(random_state(n, 0, 1).amps, plus_state(1, 0).amps)
    assert np.max(np.abs(h @ psi)) <= 1e-12


def test_bv_driver_minus_eigenstate():
    n = 2
    h = applied(interpolated(BvMask(n, 0)), 0.0)
    psi = np.kron(random_state(n, 0, 2).amps, [S2, -S2])
    np.testing.assert_allclose(h @ psi, psi, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bv_driver_spectrum(n):
    h = applied(interpolated(BvMask(n, 0)), 0.0)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
    evals = np.linalg.eigvalsh(h)
    assert int(np.sum(np.isclose(evals, 0.0))) == 1 << n
    assert int(np.sum(np.isclose(evals, 1.0))) == 1 << n


def test_simon_problem_entry_from_oracle_table():
    oracle = simon_build(2, 3)
    h = applied(interpolated(oracle), 1.0)
    # |w=01> (x) |y=0> sits at index 1*2 + 0 = 2 with value h(0, g(01)) = 1
    assert h[2, 2].real == pytest.approx(1.0)
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


@pytest.mark.parametrize("n,a,seed", [(2, 3, None), (3, 5, 2), (3, 1, None), (4, 6, 7)])
def test_simon_problem_ground_degeneracy(n, a, seed):
    h = applied(interpolated(simon_build(n, a, scramble_seed=seed)), 1.0)
    diag = np.diag(h).real
    assert diag.min() == pytest.approx(0.0)
    assert int(np.sum(np.isclose(diag, 0.0))) == 1 << n
    np.testing.assert_allclose(h, h.conj().T, atol=1e-12)


@pytest.mark.parametrize("a,seed", [(5, None), (3, 13), (6, 4)])
def test_simon_problem_hamming_equals_pauli_form(a, seed):
    # independent construction: 1/2 sum_k [1 - (-1)^{g_k(w)} sigma_z^k] per branch
    n = 3
    m = n - 1
    oracle = simon_build(n, a, scramble_seed=seed)
    dim_b = 1 << m
    blocks = []
    for w in range(1 << n):
        g = simon_eval(oracle, w)
        h_w = np.zeros((dim_b, dim_b), dtype=complex)
        for k in range(m):
            sign = -1.0 if (g >> k) & 1 else 1.0
            sz_k = kron_chain([SIGMA_Z if q == k else IDENTITY_2 for q in reversed(range(m))])
            h_w += 0.5 * (np.eye(dim_b) - sign * sz_k)
        blocks.append(h_w)
    expected = np.zeros((1 << (n + m), 1 << (n + m)), dtype=complex)
    for w, h_w in enumerate(blocks):
        proj = np.zeros((1 << n, 1 << n))
        proj[w, w] = 1.0
        expected += np.kron(proj, h_w)
    np.testing.assert_allclose(applied(interpolated(oracle), 1.0), expected, atol=1e-12)


def test_simon_driver_annihilates_all_plus():
    n = 3
    h = applied(interpolated(simon_build(n, 1)), 0.0)
    assert np.max(np.abs(h @ plus_state(n, n - 1).amps)) <= 1e-12


def test_simon_driver_b_factor_spectrum():
    # two-qubit transverse field: per-branch eigenvalues {0, 1, 1, 2}
    n = 3
    h = applied(interpolated(simon_build(n, 1)), 0.0)
    evals = np.round(np.linalg.eigvalsh(h), 10)
    values, counts = np.unique(evals, return_counts=True)
    np.testing.assert_allclose(values, [0.0, 1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(counts, [8, 16, 8])


def test_simon_driver_hermitian():
    h = applied(interpolated(simon_build(3, 1)), 0.0)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-15)


def test_interpolate_endpoints_and_midpoint():
    mask = BvMask(2, 2)
    h = interpolated(mask)
    # independent constructions of H_p and H_d = 1/2 (1 - sigma_x) on the B qubit
    problem = np.diag([float(y != bv_eval(mask, w)) for w in range(4) for y in (0, 1)])
    driver = np.kron(np.eye(4), 0.5 * (IDENTITY_2 - SIGMA_X))
    np.testing.assert_allclose(applied(h, 0.0), driver, atol=1e-15)
    np.testing.assert_allclose(applied(h, 1.0), problem, atol=1e-15)
    np.testing.assert_allclose(
        applied(h, 0.5), 0.5 * (problem + driver), atol=1e-15
    )


@pytest.mark.parametrize(
    "h",
    [interpolated(BvMask(3, 5)), interpolated(simon_build(3, 5, scramble_seed=2))],
    ids=["bv", "simon"],
)
def test_matrix_free_product_matches_dense_kron_driver(h):
    # each basis vector through _apply_h at the endpoints: the Kronecker-product
    # driver at s = 0, the problem diagonal at s = 1
    np.testing.assert_allclose(applied(h, 0.0), dense_driver(h.dims), atol=1e-15)
    np.testing.assert_allclose(applied(h, 1.0), np.diag(h.problem_diag), atol=1e-15)


def test_problem_only_product_builds_no_scaled_copy():
    # with no output qubits (the gap scan's H_p product) nothing reads
    # half_drive * psi, so no copy of psi is made: the peak read 1.0 psi with
    # one, and reads 0.13 psi (the float-to-complex cast buffer) without
    diag, psi = np.arange(1 << 16, dtype=float), np.ones(1 << 16, dtype=complex)
    out = np.empty_like(psi)
    tracemalloc.start()
    try:
        _apply_h(diag, 0.5, 0, psi, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(out, diag * psi)
    assert peak < psi.nbytes / 2


def test_two_level_bv_endpoints():
    np.testing.assert_allclose(
        two_level("bv", 0, 1.0), np.diag([-1.0, 0.0]), atol=1e-15
    )
    for f_bit in (0, 1):
        h0 = two_level("bv", f_bit, 0.0)
        np.testing.assert_allclose(h0, 0.5 * (IDENTITY_2 - SIGMA_X), atol=1e-15)
        plus = np.array([S2, S2])
        assert np.max(np.abs(h0 @ plus)) <= 1e-15


@pytest.mark.parametrize("kind", ["bv", "simon"])
def test_two_level_conjugation_identity(kind):
    for s in np.linspace(0.0, 1.0, 11):
        h0 = two_level(kind, 0, s)
        h1 = two_level(kind, 1, s)
        np.testing.assert_allclose(h1, SIGMA_X @ h0 @ SIGMA_X, atol=1e-15)


def test_two_level_simon_offset():
    # the Hamming block sits s above TwoLevelBlock's: same gap, shifted zero point
    for s in (0.0, 0.25, 0.8, 1.0):
        h_bv = two_level("bv", 0, s)
        h_simon = two_level("simon", 0, s)
        np.testing.assert_allclose(h_simon, h_bv + s * IDENTITY_2, atol=1e-15)


def test_gap_frozen_values():
    assert gap(0.0) == pytest.approx(1.0, abs=1e-12)
    assert gap(1.0) == pytest.approx(1.0, abs=1e-12)
    assert gap(0.5) == pytest.approx(0.7071067811865476, abs=1e-12)


@pytest.mark.parametrize("kind,f_bit", [("bv", 0), ("bv", 1), ("simon", 0), ("simon", 1)])
def test_gap_closed_form_on_grid(kind, f_bit):
    # gap(s) is every block's level splitting, the Hamming offset one included
    for s in np.linspace(0.0, 1.0, 1000):
        s = float(s)
        assert abs(gap(s) - math.hypot(1.0 - s, s)) <= 1e-12
        low, high = np.linalg.eigvalsh(two_level(kind, f_bit, s))
        assert abs(gap(s) - (high - low)) <= 1e-12


@pytest.mark.parametrize("n,a", [(2, 2), (3, 5), (4, 9)])
def test_bv_block_diagonal_identity(n, a):
    # dense H(s) equals the direct sum over w of the Hamming branch blocks
    mask = BvMask(n, a)
    h = interpolated(mask)
    for s in (0.0, 0.3, 0.7, 1.0):
        expected = np.zeros((1 << (n + 1), 1 << (n + 1)), dtype=complex)
        for w in range(1 << n):
            proj = np.zeros((1 << n, 1 << n))
            proj[w, w] = 1.0
            expected += np.kron(proj, two_level("simon", bv_eval(mask, w), s))
        np.testing.assert_allclose(applied(h, s), expected, atol=1e-12)


def test_simon_block_diagonal_identity():
    # dense H(s) equals sum_w |w><w| (x) sum_k (per-qubit branch block on k);
    # every embedded block carries its own scalar part, so the plain sum is H_w
    n = 3
    m = n - 1
    oracle = simon_build(n, 5)
    h = interpolated(oracle)
    for s in (0.0, 0.4, 1.0):
        expected = np.zeros((1 << (n + m), 1 << (n + m)), dtype=complex)
        for w in range(1 << n):
            g = simon_eval(oracle, w)
            h_w = np.zeros((1 << m, 1 << m), dtype=complex)
            for k in range(m):
                block = two_level("simon", (g >> k) & 1, s)
                h_w += kron_chain(
                    [block if q == k else IDENTITY_2 for q in reversed(range(m))]
                )
            expected += np.kron(_projector(w, n), h_w)
        np.testing.assert_allclose(applied(h, s), expected, atol=1e-12)


def _projector(w, n):
    proj = np.zeros((1 << n, 1 << n))
    proj[w, w] = 1.0
    return proj


def test_min_gap_scan_bv():
    scan = min_gap_scan(interpolated(BvMask(2, 2)), grid=201)
    assert scan.gap_min == pytest.approx(S2, abs=1e-3)
    assert scan.s_min == pytest.approx(0.5, abs=5e-3)


def test_min_gap_scan_simon():
    scan = min_gap_scan(interpolated(simon_build(2, 3)), grid=201)
    assert scan.gap_min == pytest.approx(S2, abs=1e-3)
    assert scan.s_min == pytest.approx(0.5, abs=5e-3)


WITNESS_CASES = {
    **{
        f"bv-{n}": (interpolated(BvMask(n, a)), 2)
        for n, a in [(1, 1), (2, 2), (3, 5), (4, 11), (5, 22)]
    },
    **{
        f"simon-{n}-{seed}": (interpolated(simon_build(n, a, scramble_seed=seed)), n)
        for n, a in [(2, 3), (3, 5), (4, 6)]
        for seed in (None, 7)
    },
}


@pytest.mark.parametrize("h,d", WITNESS_CASES.values(), ids=WITNESS_CASES.keys())
def test_gap_table_on_k_matches_dense_full_spectrum(h, d):
    # K is the symmetric subspace of the n_b output qubits: 2 for BV, n for Simon
    hp, hd = _closure(h)
    assert hp.shape == hd.shape == (d, d)
    table = gap_table(h, 25)
    assert table[0][0] == 0.0 and table[-1][0] == 1.0
    for s, value in table:
        assert abs(value - level_gap(interpolate(h, s))) <= 1e-12, (s, value)


def test_gap_scan_refuses_a_closure_past_n_b_plus_1_vectors():
    # a random problem diagonal is no Hamming encoding: K would grow toward 2^12 vectors
    h = InterpolatedHamiltonian(np.random.default_rng(5).uniform(-2.0, 2.0, 1 << 12), (8, 4))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError) as refused:
            min_gap_scan(h, grid=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "\n" not in str(refused.value)
    assert peak < 10 * h.problem_diag.nbytes  # n_b + 1 = 5 basis vectors and scratch, not 2^12


def test_gap_scan_refuses_a_one_level_subspace():
    # a constant problem diagonal leaves |+>|+> an eigenvector of both operators
    with pytest.raises(DomainError, match="one level"):
        min_gap_scan(InterpolatedHamiltonian(np.zeros(4), (1, 1)), grid=5)


def test_min_gap_scan_grid_too_small():
    with pytest.raises(DomainError):
        min_gap_scan(interpolated(BvMask(2, 2)), grid=2)
