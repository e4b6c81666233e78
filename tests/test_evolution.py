"""Propagator tests: adiabatic limits, decoupling, convergence order, assembly."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from adiabatic_sim import evolution
from adiabatic_sim.errors import DomainError, IntegrationError, ShapeError
from adiabatic_sim.evolution import (
    Schedule,
    assemble_bv,
    assemble_simon,
    evolve_full,
    evolve_two_level,
)
from adiabatic_sim.hamiltonians import (
    InterpolatedHamiltonian,
    TwoLevelBlock,
    bv_interpolated,
    interpolate,
    simon_interpolated,
)
from adiabatic_sim.oracles import BvMask, bv_eval, simon_build, simon_eval
from adiabatic_sim.qstate import SIGMA_X, StateVector, inner, plus_state
from helpers import random_state

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


def bv_target(mask: BvMask) -> StateVector:
    """Independent construction of 2^(-n/2) sum_w |w>|f(w)>."""
    amps = np.zeros(1 << (mask.n + 1), dtype=complex)
    for w in range(1 << mask.n):
        amps[2 * w + bv_eval(mask, w)] = 1.0 / math.sqrt(1 << mask.n)
    return StateVector(mask.n, 1, amps)


def simon_target(oracle) -> StateVector:
    """Independent construction of 2^(-n/2) sum_w |w>|g(w)>."""
    n, m = oracle.n, oracle.n - 1
    amps = np.zeros(1 << (n + m), dtype=complex)
    for w in range(1 << n):
        amps[(w << m) + simon_eval(oracle, w)] = 1.0 / math.sqrt(1 << n)
    return StateVector(n, m, amps)


def test_schedule_validation():
    for total_time in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            Schedule(total_time, 10)
    with pytest.raises(DomainError):
        Schedule(1.0, 0)
    assert Schedule(2.0, 4).dt == pytest.approx(0.5)


def test_frozen_driver_leaves_ground_state_fixed():
    # zero problem diagonal: H(s) = (1-s) H_d; |+>|+> is its zero eigenvector,
    # so no phase at all
    n = 2
    frozen = InterpolatedHamiltonian(np.zeros(1 << (n + 1)), (n, 1))
    psi0 = plus_state(n, 1)
    result = evolve_full(frozen, psi0, Schedule(3.0, 300))
    assert np.max(np.abs(result.final_state.amps - psi0.amps)) <= 1e-12


def test_full_evolution_reaches_bv_target():
    mask = BvMask(2, 2)
    target = bv_target(mask)
    result = evolve_full(bv_interpolated(mask), plus_state(2, 1), Schedule(50.0, 5000), target)
    assert result.fidelity_to_target >= 0.999
    assert result.norm_drift <= 1e-9


def test_diabatic_quench_matches_sudden_approximation():
    mask = BvMask(2, 2)
    target = bv_target(mask)
    psi0 = plus_state(2, 1)
    sudden = abs(inner(target, psi0)) ** 2
    assert sudden == pytest.approx(0.5, abs=1e-12)
    result = evolve_full(bv_interpolated(mask), psi0, Schedule(0.01, 10), target)
    assert result.fidelity_to_target == pytest.approx(sudden, abs=0.02)
    assert result.fidelity_to_target < 0.6


def test_two_level_adiabatic_limit():
    phi0 = evolve_two_level(TwoLevelBlock(0, "bv"), Schedule(50.0, 5000))
    assert abs(phi0[0]) ** 2 >= 0.999
    assert abs(float(np.vdot(phi0, phi0).real) - 1.0) <= 1e-9


@pytest.mark.parametrize("kind", ["bv", "simon"])
@pytest.mark.parametrize("T", [1.0, 5.0, 50.0])
def test_branch_conjugation_identity(kind, T):
    sched = Schedule(T, int(100 * T))
    phi0 = evolve_two_level(TwoLevelBlock(0, kind), sched)
    phi1 = evolve_two_level(TwoLevelBlock(1, kind), sched)
    assert np.max(np.abs(phi1 - SIGMA_X @ phi0)) <= 1e-12


def seed_two_level_loop(block: TwoLevelBlock, sched: Schedule) -> np.ndarray:
    """The original step-by-step scalar integrator, kept as the reference."""
    sign = -1.0 if block.f_bit else 1.0
    u0 = u1 = complex(math.sqrt(0.5))
    dt = sched.dt
    for j in range(sched.steps):
        s = (j + 0.5) / sched.steps
        vx = -0.5 * (1.0 - s)
        vz = -0.5 * s * sign
        c = 0.5 * (1.0 - 2.0 * s) if block.kind == "bv" else 0.5
        r = math.hypot(vx, vz)
        cos_t = math.cos(r * dt)
        sn = math.sin(r * dt) / r
        phase = cmath.exp(-1j * c * dt)
        a_diag = -1j * sn * vz
        a_off = -1j * sn * vx
        u0, u1 = (
            phase * ((cos_t + a_diag) * u0 + a_off * u1),
            phase * (a_off * u0 + (cos_t - a_diag) * u1),
        )
    return np.array([u0, u1])


@pytest.mark.parametrize("kind", ["bv", "simon"])
@pytest.mark.parametrize("steps", [1, 2, 3, 7, 100, 5000, (1 << 14) + 3])
def test_prefix_integrator_matches_scalar_loop(kind, steps):
    # the last step count crosses a chunk boundary; the loop's own rounding
    # error reaches 6e-13 at 16387 steps (the prefix product's stays below 1e-14)
    for total_time in (0.01, 1.0, 50.0, 1e4):
        sched = Schedule(total_time, steps)
        for f_bit in (0, 1):
            block = TwoLevelBlock(f_bit, kind)
            phi = evolve_two_level(block, sched)
            assert np.max(np.abs(phi - seed_two_level_loop(block, sched))) <= 1e-12


def test_chunks_carry_the_state(monkeypatch):
    sched = Schedule(5.0, 100)
    whole = evolve_two_level(TwoLevelBlock(1, "bv"), sched)
    spans = []
    step_matrices = evolution._step_matrices

    def spy(block, sched, start, stop):
        spans.append((start, stop))
        return step_matrices(block, sched, start, stop)

    monkeypatch.setattr(evolution, "TWO_LEVEL_CHUNK", 7)
    monkeypatch.setattr(evolution, "_step_matrices", spy)
    chunked = evolve_two_level(TwoLevelBlock(1, "bv"), sched)
    assert spans == [(start, min(start + 7, 100)) for start in range(0, 100, 7)]
    assert np.max(np.abs(chunked - whole)) <= 1e-14


def test_two_level_memory_is_bounded_by_the_chunk():
    # 2^20 step matrices alone would take 64 MiB
    tracemalloc.start()
    try:
        phi = evolve_two_level(TwoLevelBlock(0, "simon"), Schedule(50.0, 1 << 20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(float(np.vdot(phi, phi).real) - 1.0) <= 1e-9
    assert peak <= 2 << 20


def test_two_level_drift_check_fails_on_nan(monkeypatch):
    monkeypatch.setattr(evolution, "_prefix_scan", lambda m, out: out.fill(np.nan))
    with pytest.raises(IntegrationError):
        evolve_two_level(TwoLevelBlock(0, "bv"), Schedule(1.0, 10))


def test_step_doubling_quarters_the_error():
    reference = evolve_two_level(TwoLevelBlock(0, "bv"), Schedule(5.0, 1 << 16))
    errors = []
    for steps in (250, 500, 1000):
        phi = evolve_two_level(TwoLevelBlock(0, "bv"), Schedule(5.0, steps))
        errors.append(np.max(np.abs(phi - reference)))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 <= coarse / fine <= 5.0


def test_assemble_bv_ideal_branches():
    psi = assemble_bv(BvMask(2, 2), E0, E1)
    expected = np.zeros(8, dtype=complex)
    for w, f in [(0, 0), (1, 0), (2, 1), (3, 1)]:
        expected[2 * w + f] = 0.5
    np.testing.assert_allclose(psi.amps, expected, atol=1e-15)


def test_assemble_bv_plus_branches_give_initial_state():
    psi = assemble_bv(BvMask(3, 5), PLUS, PLUS)
    np.testing.assert_allclose(psi.amps, plus_state(3, 1).amps, atol=1e-15)


def test_assemble_bv_matches_full_evolution():
    mask = BvMask(3, 5)
    sched = Schedule(50.0, 5000)
    full = evolve_full(bv_interpolated(mask), plus_state(3, 1), sched)
    phi0 = evolve_two_level(TwoLevelBlock(0, "bv"), sched)
    phi1 = evolve_two_level(TwoLevelBlock(1, "bv"), sched)
    factored = assemble_bv(mask, phi0, phi1)
    assert np.max(np.abs(full.final_state.amps - factored.amps)) <= 1e-8


def test_assemble_simon_ideal_branches():
    oracle = simon_build(2, 3)
    psi = assemble_simon(oracle, E0, E1)
    expected = np.zeros(8, dtype=complex)
    for w in range(4):
        expected[(w << 1) + simon_eval(oracle, w)] = 0.5
    np.testing.assert_allclose(psi.amps, expected, atol=1e-15)


@pytest.mark.parametrize("T", [5.0, 50.0])
def test_assemble_simon_coset_grouping(T):
    # amplitudes are constant on cosets {w, w xor a} for ideal and evolved branches
    oracle = simon_build(3, 5)
    sched = Schedule(T, int(100 * T))
    phi0 = evolve_two_level(TwoLevelBlock(0, "simon"), sched)
    phi1 = evolve_two_level(TwoLevelBlock(1, "simon"), sched)
    mat = assemble_simon(oracle, phi0, phi1).as_matrix()
    for w in range(8):
        np.testing.assert_allclose(mat[w], mat[w ^ 5], atol=1e-15)


def test_assemble_simon_matches_full_evolution():
    oracle = simon_build(3, 5)
    sched = Schedule(50.0, 5000)
    full = evolve_full(simon_interpolated(oracle), plus_state(3, 2), sched)
    phi0 = evolve_two_level(TwoLevelBlock(0, "simon"), sched)
    phi1 = evolve_two_level(TwoLevelBlock(1, "simon"), sched)
    factored = assemble_simon(oracle, phi0, phi1)
    assert np.max(np.abs(full.final_state.amps - factored.amps)) <= 1e-8


def test_full_state_fidelity_is_register_size_independent():
    sched = Schedule(50.0, 5000)
    fidelities = []
    for n in (2, 3, 4):
        mask = BvMask(n, (1 << n) - 1)
        result = evolve_full(
            bv_interpolated(mask), plus_state(n, 1), sched, bv_target(mask)
        )
        fidelities.append(result.fidelity_to_target)
    assert max(fidelities) - min(fidelities) <= 1e-8


def test_evolve_full_validation():
    mask = BvMask(2, 1)
    h = bv_interpolated(mask)
    with pytest.raises(ShapeError):
        evolve_full(h, plus_state(3, 1), Schedule(1.0, 10))
    bad = StateVector(2, 1, np.full(8, 0.1, dtype=complex))
    with pytest.raises(DomainError):
        evolve_full(h, bad, Schedule(1.0, 10))


def test_full_drift_check_fails_on_nan(monkeypatch):
    # a NaN state after the last step must not slip past the drift check
    sched = Schedule(1.0, 4)
    krylov_step = evolution._krylov_step
    calls = []

    def last_step_nan(apply_h, psi, tau, basis):
        calls.append(tau)
        out = krylov_step(apply_h, psi, tau, basis)
        return out * np.nan if len(calls) == sched.steps else out

    monkeypatch.setattr(evolution, "_krylov_step", last_step_nan)
    with pytest.raises(IntegrationError):
        evolve_full(bv_interpolated(BvMask(2, 1)), plus_state(2, 1), sched)


def test_assemble_rejects_unnormalized_branches():
    with pytest.raises(DomainError):
        assemble_bv(BvMask(2, 1), 2.0 * E0, E1)


def test_evolution_is_bit_identical_within_a_build():
    sched = Schedule(5.0, 500)
    first = evolve_two_level(TwoLevelBlock(0, "simon"), sched)
    second = evolve_two_level(TwoLevelBlock(0, "simon"), sched)
    assert np.array_equal(first, second)
    mask = BvMask(2, 2)
    h = bv_interpolated(mask)
    a = evolve_full(h, plus_state(2, 1), sched).final_state.amps
    b = evolve_full(h, plus_state(2, 1), sched).final_state.amps
    assert np.array_equal(a, b)


def dense_reference(h, psi0: StateVector, sched: Schedule) -> np.ndarray:
    """The midpoint-frozen step exp(-i dt H(s_mid)) from a dense eigh, stepped."""
    psi = psi0.amps.copy()
    for s in sched.midpoints():
        evals, vecs = np.linalg.eigh(interpolate(h, float(s)))
        psi = vecs @ (np.exp(-1j * sched.dt * evals) * (vecs.conj().T @ psi))
    return psi


@pytest.mark.parametrize("sched", [Schedule(50.0, 1), Schedule(5.0, 100)], ids=["T50x1", "T5x100"])
@pytest.mark.parametrize("problem", ["bv", "simon"])
def test_full_evolution_from_random_state_matches_dense_reference(problem, sched):
    # a random start state excites every level of every block, not only |+>|+>
    if problem == "bv":
        h, dims = bv_interpolated(BvMask(3, 5)), (3, 1)
    else:
        h, dims = simon_interpolated(simon_build(3, 5, scramble_seed=2)), (3, 2)
    psi0 = random_state(*dims, seed=11)
    result = evolve_full(h, psi0, sched)
    reference = dense_reference(h, psi0, sched)
    assert np.max(np.abs(result.final_state.amps - reference)) <= 1e-10
    assert result.norm_drift <= 1e-12


def test_krylov_limit_splits_the_step_and_matches_dense_reference(monkeypatch):
    # a random problem diagonal has no small invariant subspace, and dt = 40
    # needs far more than KRYLOV_MAX vectors, so the step must be split
    rng = np.random.default_rng(5)
    h = InterpolatedHamiltonian(rng.uniform(-2.0, 2.0, 1 << 6), (4, 2))
    psi0 = random_state(4, 2, seed=3)
    sched = Schedule(80.0, 2)
    outcomes = []
    lanczos = evolution._lanczos_expm

    def spy(*args):
        out = lanczos(*args)
        outcomes.append(out is not None)
        return out

    monkeypatch.setattr(evolution, "_lanczos_expm", spy)
    result = evolve_full(h, psi0, sched)
    assert not all(outcomes) and outcomes.count(False) >= 2
    reference = dense_reference(h, psi0, sched)
    assert np.max(np.abs(result.final_state.amps - reference)) <= 1e-10
    assert result.norm_drift <= 1e-12


def test_unconverged_lanczos_step_raises_after_bounded_splits():
    # a NaN problem entry never converges; the split recursion stops with an
    # IntegrationError instead of recursing without bound
    diag = np.zeros(1 << 3)
    diag[5] = np.nan
    h = InterpolatedHamiltonian(diag, (2, 1))
    with pytest.raises(IntegrationError):
        evolve_full(h, plus_state(2, 1), Schedule(1.0, 1))


def test_full_path_agrees_with_factored_above_the_dense_cap():
    # BV n = 16 is 17 qubits: a dense H(s) there would be 2^17 x 2^17, so this
    # also shows that evolve_full builds none
    sched = Schedule(1.0, 100)
    mask = BvMask(16, 0b1011_0011_1000_1101)
    full = evolve_full(bv_interpolated(mask), plus_state(16, 1), sched)
    phi0 = evolve_two_level(TwoLevelBlock(0, "bv"), sched)
    phi1 = evolve_two_level(TwoLevelBlock(1, "bv"), sched)
    assert np.max(np.abs(full.final_state.amps - assemble_bv(mask, phi0, phi1).amps)) <= 1e-8

    oracle = simon_build(8, 0b1011_0110)
    full = evolve_full(simon_interpolated(oracle), plus_state(8, 7), sched)
    phi0 = evolve_two_level(TwoLevelBlock(0, "simon"), sched)
    phi1 = evolve_two_level(TwoLevelBlock(1, "simon"), sched)
    factored = assemble_simon(oracle, phi0, phi1)
    assert np.max(np.abs(full.final_state.amps - factored.amps)) <= 1e-8
