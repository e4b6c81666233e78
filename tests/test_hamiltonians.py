"""Hamiltonian builders, the two-level reduction, and gap scans."""

import math

import numpy as np
import pytest

from adiabatic_sim.errors import DomainError
from adiabatic_sim.hamiltonians import (
    TwoLevelBlock,
    bv_interpolated,
    gap,
    interpolate,
    min_gap_scan,
    simon_interpolated,
    two_level,
)
from adiabatic_sim.oracles import BvMask, bv_eval, simon_build, simon_eval
from adiabatic_sim.qstate import IDENTITY_2, SIGMA_X, SIGMA_Z, plus_state
from helpers import random_state

S2 = 1.0 / math.sqrt(2.0)


def kron_chain(mats):
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def test_bv_problem_n1_by_hand():
    # f(0)=0, f(1)=1 for a=1: ground entries sit at |0,0> and |1,1>
    h = interpolate(bv_interpolated(BvMask(1, 1)), 1.0)
    np.testing.assert_allclose(np.diag(h), [-1, 0, 0, -1], atol=1e-15)
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


@pytest.mark.parametrize("n,a", [(1, 1), (2, 2), (3, 5), (4, 11)])
def test_bv_problem_trace_and_spectrum(n, a):
    h = interpolate(bv_interpolated(BvMask(n, a)), 1.0)
    assert np.trace(h).real == pytest.approx(-(1 << n))
    evals = np.linalg.eigvalsh(h)
    assert set(np.round(evals, 12)) == {-1.0, 0.0}
    assert int(np.sum(np.isclose(evals, -1.0))) == 1 << n  # 2^n-fold ground degeneracy
    np.testing.assert_allclose(h, h.conj().T, atol=1e-12)


def test_bv_driver_annihilates_plus():
    n = 3
    h = interpolate(bv_interpolated(BvMask(n, 0)), 0.0)
    psi = np.kron(random_state(n, 0, 1).amps, plus_state(1, 0).amps)
    assert np.max(np.abs(h @ psi)) <= 1e-12


def test_bv_driver_minus_eigenstate():
    n = 2
    h = interpolate(bv_interpolated(BvMask(n, 0)), 0.0)
    psi = np.kron(random_state(n, 0, 2).amps, [S2, -S2])
    np.testing.assert_allclose(h @ psi, psi, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bv_driver_spectrum(n):
    h = interpolate(bv_interpolated(BvMask(n, 0)), 0.0)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
    evals = np.linalg.eigvalsh(h)
    assert int(np.sum(np.isclose(evals, 0.0))) == 1 << n
    assert int(np.sum(np.isclose(evals, 1.0))) == 1 << n


def test_simon_problem_entry_from_oracle_table():
    oracle = simon_build(2, 3)
    h = interpolate(simon_interpolated(oracle), 1.0)
    # |w=01> (x) |y=0> sits at index 1*2 + 0 = 2 with value h(0, g(01)) = 1
    assert h[2, 2].real == pytest.approx(1.0)
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


@pytest.mark.parametrize("n,a,seed", [(2, 3, None), (3, 5, 2), (3, 1, None), (4, 6, 7)])
def test_simon_problem_ground_degeneracy(n, a, seed):
    h = interpolate(simon_interpolated(simon_build(n, a, scramble_seed=seed)), 1.0)
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
    np.testing.assert_allclose(interpolate(simon_interpolated(oracle), 1.0), expected, atol=1e-12)


def test_simon_driver_annihilates_all_plus():
    n = 3
    h = interpolate(simon_interpolated(simon_build(n, 1)), 0.0)
    assert np.max(np.abs(h @ plus_state(n, n - 1).amps)) <= 1e-12


def test_simon_driver_b_factor_spectrum():
    # two-qubit transverse field: per-branch eigenvalues {0, 1, 1, 2}
    n = 3
    h = interpolate(simon_interpolated(simon_build(n, 1)), 0.0)
    evals = np.round(np.linalg.eigvalsh(h), 10)
    values, counts = np.unique(evals, return_counts=True)
    np.testing.assert_allclose(values, [0.0, 1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(counts, [8, 16, 8])


def test_simon_driver_hermitian():
    h = interpolate(simon_interpolated(simon_build(3, 1)), 0.0)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-15)


def test_interpolate_endpoints_and_midpoint():
    mask = BvMask(2, 2)
    h = bv_interpolated(mask)
    # independent constructions of H_p and H_d = 1/2 (1 - sigma_x) on the B qubit
    problem = -np.diag([float(y == bv_eval(mask, w)) for w in range(4) for y in (0, 1)])
    driver = np.kron(np.eye(4), 0.5 * (IDENTITY_2 - SIGMA_X))
    np.testing.assert_allclose(interpolate(h, 0.0), driver, atol=1e-15)
    np.testing.assert_allclose(interpolate(h, 1.0), problem, atol=1e-15)
    np.testing.assert_allclose(
        interpolate(h, 0.5), 0.5 * (problem + driver), atol=1e-15
    )
    with pytest.raises(DomainError):
        interpolate(h, 1.5)


def test_two_level_bv_endpoints():
    np.testing.assert_allclose(
        two_level(TwoLevelBlock(0, "bv"), 1.0), np.diag([-1.0, 0.0]), atol=1e-15
    )
    for f_bit in (0, 1):
        h0 = two_level(TwoLevelBlock(f_bit, "bv"), 0.0)
        np.testing.assert_allclose(h0, 0.5 * (IDENTITY_2 - SIGMA_X), atol=1e-15)
        plus = np.array([S2, S2])
        assert np.max(np.abs(h0 @ plus)) <= 1e-15


@pytest.mark.parametrize("kind", ["bv", "simon"])
def test_two_level_conjugation_identity(kind):
    for s in np.linspace(0.0, 1.0, 11):
        h0 = two_level(TwoLevelBlock(0, kind), s)
        h1 = two_level(TwoLevelBlock(1, kind), s)
        np.testing.assert_allclose(h1, SIGMA_X @ h0 @ SIGMA_X, atol=1e-15)


def test_two_level_simon_offset():
    # simon blocks sit s above the bv blocks: same gap, shifted zero point
    for s in (0.0, 0.25, 0.8, 1.0):
        h_bv = two_level(TwoLevelBlock(0, "bv"), s)
        h_simon = two_level(TwoLevelBlock(0, "simon"), s)
        np.testing.assert_allclose(h_simon, h_bv + s * IDENTITY_2, atol=1e-15)


def test_gap_frozen_values():
    block = TwoLevelBlock(0, "bv")
    assert gap(block, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert gap(block, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert gap(block, 0.5) == pytest.approx(0.7071067811865476, abs=1e-12)


@pytest.mark.parametrize("kind,f_bit", [("bv", 0), ("bv", 1), ("simon", 0), ("simon", 1)])
def test_gap_closed_form_on_grid(kind, f_bit):
    block = TwoLevelBlock(f_bit, kind)
    for s in np.linspace(0.0, 1.0, 1000):
        assert abs(gap(block, float(s)) - math.hypot(1.0 - s, s)) <= 1e-12


@pytest.mark.parametrize("n,a", [(2, 2), (3, 5), (4, 9)])
def test_bv_block_diagonal_identity(n, a):
    # dense H(s) equals the direct sum over w of the two-level branch blocks
    mask = BvMask(n, a)
    h = bv_interpolated(mask)
    for s in (0.0, 0.3, 0.7, 1.0):
        expected = np.zeros((1 << (n + 1), 1 << (n + 1)), dtype=complex)
        for w in range(1 << n):
            proj = np.zeros((1 << n, 1 << n))
            proj[w, w] = 1.0
            expected += np.kron(proj, two_level(TwoLevelBlock(bv_eval(mask, w), "bv"), s))
        np.testing.assert_allclose(interpolate(h, s), expected, atol=1e-12)


def test_simon_block_diagonal_identity():
    # dense H(s) equals sum_w |w><w| (x) sum_k (per-qubit branch block on k);
    # every embedded block carries its own scalar part, so the plain sum is H_w
    n = 3
    m = n - 1
    oracle = simon_build(n, 5)
    h = simon_interpolated(oracle)
    for s in (0.0, 0.4, 1.0):
        expected = np.zeros((1 << (n + m), 1 << (n + m)), dtype=complex)
        for w in range(1 << n):
            g = simon_eval(oracle, w)
            h_w = np.zeros((1 << m, 1 << m), dtype=complex)
            for k in range(m):
                block = two_level(TwoLevelBlock((g >> k) & 1, "simon"), s)
                h_w += kron_chain(
                    [block if q == k else IDENTITY_2 for q in reversed(range(m))]
                )
            expected += np.kron(_projector(w, n), h_w)
        np.testing.assert_allclose(interpolate(h, s), expected, atol=1e-12)


def _projector(w, n):
    proj = np.zeros((1 << n, 1 << n))
    proj[w, w] = 1.0
    return proj


def test_min_gap_scan_bv():
    scan = min_gap_scan(bv_interpolated(BvMask(2, 2)), grid=201)
    assert scan.gap_min == pytest.approx(S2, abs=1e-3)
    assert scan.s_min == pytest.approx(0.5, abs=5e-3)


def test_min_gap_scan_simon():
    scan = min_gap_scan(simon_interpolated(simon_build(2, 3)), grid=201)
    assert scan.gap_min == pytest.approx(S2, abs=1e-3)
    assert scan.s_min == pytest.approx(0.5, abs=5e-3)


def test_min_gap_scan_grid_too_small():
    with pytest.raises(DomainError):
        min_gap_scan(bv_interpolated(BvMask(2, 2)), grid=2)
