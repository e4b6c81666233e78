"""Propagator tests: adiabatic limits, decoupling, convergence order, assembly."""

import cmath
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from adiabatic_sim import evolution
from adiabatic_sim.errors import DomainError, IntegrationError, ShapeError
from adiabatic_sim.evolution import Schedule, assemble, evolve_full, evolve_two_level
from adiabatic_sim.hamiltonians import InterpolatedHamiltonian, TwoLevelBlock, interpolated
from adiabatic_sim.measurement import simon_row_bit_prob
from adiabatic_sim.oracles import BvMask, simon_build, simon_eval
from adiabatic_sim.protocols import branch_pair
from adiabatic_sim.qstate import SIGMA_X, StateVector, plus_state
from helpers import (
    bv_eval,
    exact_branch,
    fidelity,
    inner,
    interpolate,
    kind_pair,
    problem_phase,
    random_state,
    unmirrored_branch,
)

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
CHUNK = evolution.TWO_LEVEL_CHUNK


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
    for steps in (0, 2.5, 3.0, None):
        with pytest.raises(DomainError):
            Schedule(1.0, steps)
    assert Schedule(2.0, 4).dt == pytest.approx(0.5)
    assert Schedule(2.0, np.int64(4)).dt == pytest.approx(0.5)


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
    result = evolve_full(interpolated(mask), plus_state(2, 1), Schedule(50.0, 5000))
    assert fidelity(target, result.final_state) >= 0.999
    assert result.norm_drift <= 1e-9


def test_diabatic_quench_matches_sudden_approximation():
    mask = BvMask(2, 2)
    target = bv_target(mask)
    psi0 = plus_state(2, 1)
    sudden = abs(inner(target, psi0)) ** 2
    assert sudden == pytest.approx(0.5, abs=1e-12)
    quench = fidelity(target, evolve_full(interpolated(mask), psi0, Schedule(0.01, 10)).final_state)
    assert quench == pytest.approx(sudden, abs=0.02)
    assert quench < 0.6


def test_two_level_adiabatic_limit():
    phi0 = evolve_two_level(TwoLevelBlock(0), Schedule(50.0, 5000))
    assert abs(phi0[0]) ** 2 >= 0.999
    assert abs(float(np.vdot(phi0, phi0).real) - 1.0) <= 1e-9


@pytest.mark.parametrize("kind", ["bv", "simon"])
@pytest.mark.parametrize("T", [1.0, 5.0, 50.0])
def test_branch_conjugation_identity(kind, T):
    # 65 and 1001 steps leave an unpaired step at the first tree level, 129 one
    # level higher; 8193 and 16387 cross a chunk boundary (TWO_LEVEL_CHUNK = 8192)
    for steps in (int(100 * T), 65, 129, 1001, 8193, 16387):
        phi0 = kind_pair(kind, T, steps)[0]
        phi1 = evolve_two_level(TwoLevelBlock(1), Schedule(T, steps)) * problem_phase(kind, T)
        # exact by construction: sigma_x conjugation maps every step's (a, b) to
        # (conj(a), -conj(b)), under which the product tree's sums keep their terms
        assert np.array_equal(phi1, SIGMA_X @ phi0), steps


@pytest.mark.parametrize("T", [0.5, 5.77, 50.0])
def test_kinds_differ_by_a_global_phase_only(T):
    # the Hamming block is TwoLevelBlock's plus s*1, whose midpoint sum
    # dt * sum_j s_j is T/2 exactly, as the integral of t/T is: one evolution,
    # and branch_pair's pair is evolve_two_level's times exp(-iT/2) to the bit
    steps = round(100 * T)
    bv, simon = kind_pair("bv", T, steps), branch_pair(T, steps)
    for phi_bv, phi_simon in zip(bv, simon):
        assert np.array_equal(phi_simon, phi_bv * cmath.exp(-0.5j * T))
    # q is phase-free; only the rounding of the phase product reaches it, a few
    # ulps (2 at T = 50, where q is 0.4978 and an ulp is 5.6e-17)
    q_bv = simon_row_bit_prob(*bv)
    q_simon = simon_row_bit_prob(*simon)
    assert abs(q_simon - q_bv) <= 4 * np.spacing(q_bv)
    witness = cmath.exp(-0.5j * T) * exact_branch("bv", T)
    assert np.max(np.abs(exact_branch("simon", T) - witness)) <= 1e-14


# q(T) of the exact branch, to 12 digits
EXACT_Q = {0.5: 0.015506080596, 1.0: 0.060618141565, 2.0: 0.221181824420,
           5.0: 0.724610586514, 5.77: 0.750153555140, 20.0: 0.515664124416,
           50.0: 0.497778842327}


@lru_cache(maxsize=None)
def exact_q(kind: str, T: float) -> float:
    phi = exact_branch(kind, T)
    assert abs(float(np.vdot(phi, phi).real) - 1.0) <= 1e-14
    return simon_row_bit_prob(phi, SIGMA_X @ phi)


@pytest.mark.parametrize("kind", ["bv", "simon"])
def test_exact_branch_gives_the_known_q(kind):
    for T, q in EXACT_Q.items():
        assert abs(exact_q(kind, T) - q) <= 1e-10


@pytest.mark.parametrize("kind", ["bv", "simon"])
@pytest.mark.parametrize("steps_of,tol", [(lambda T: round(100 * T), 2e-6), (lambda T: 1 << 16, 1e-9)],
                         ids=["100T", "2^16"])
def test_branch_pair_q_is_near_the_exact_q(kind, steps_of, tol):
    # the midpoint rule's O(dt^2) error against a reference with no step error
    for T in EXACT_Q:
        q = simon_row_bit_prob(*kind_pair(kind, T, steps_of(T)))
        assert abs(q - exact_q(kind, T)) <= tol


def branch_error(kind: str, T: float, steps: int) -> float:
    """|kind_pair's phi_0 - exact branch|, in the 2-norm: for "simon", the
    exact branch integrates its own +s term, so the error covers the phase."""
    return float(np.linalg.norm(kind_pair(kind, T, steps)[0] - exact_branch(kind, T)))


@pytest.mark.parametrize("kind", ["bv", "simon"])
@pytest.mark.parametrize("T", [1.0, 5.0, 50.0])
def test_branch_error_over_dt_squared_is_constant(kind, T):
    # the midpoint rule is second order: at 100 T to 800 T steps the error
    # (3.7e-9 or more) stays far above round-off, and error / dt^2 is one
    # constant to 10%
    constants = [branch_error(kind, T, steps) / (T / steps) ** 2
                 for steps in (round(100 * T), round(200 * T), round(400 * T), round(800 * T))]
    assert max(constants) <= 1.1 * min(constants)


@pytest.mark.parametrize("problem", ["bv", "simon"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("T", [1.0, 5.0])
def test_full_path_is_within_its_dt_squared_bound_of_the_exact_assembly(problem, n, T):
    # the full path freezes H at the same midpoints, so each of its m output
    # qubits carries the branch's error C dt^2, and the product state's error
    # is at most m C dt^2; C is the branch's constant at the finer step; both
    # problems' output qubits have the Hamming block
    ideal = exact_branch("simon", T)
    if problem == "bv":
        mask, m = BvMask(n, (1 << n) - 1), 1
        h, exact = interpolated(mask), assemble(mask, ideal, SIGMA_X @ ideal)
    else:
        oracle, m = simon_build(n, (1 << n) - 1), n - 1
        h, exact = interpolated(oracle), assemble(oracle, ideal, SIGMA_X @ ideal)
    fine = round(200 * T)
    constant = branch_error("simon", T, fine) / (T / fine) ** 2
    errors = []
    for steps in (round(100 * T), fine):
        full = evolve_full(h, plus_state(n, m), Schedule(T, steps)).final_state
        error = float(np.linalg.norm(full.amps - exact.amps))
        assert error <= 1.1 * m * constant * (T / steps) ** 2
        errors.append(error)
    assert 3.6 <= errors[0] / errors[1] <= 4.4  # halving dt quarters the error


def seed_two_level_loop(kind: str, f_bit: int, sched: Schedule) -> np.ndarray:
    """The original step-by-step scalar integrator, kept as the reference; it
    steps the Hamming block's s*1 offset as the phase c = 1/2 of every step."""
    sign = -1.0 if f_bit else 1.0
    u0 = u1 = complex(math.sqrt(0.5))
    dt = sched.dt
    for j in range(sched.steps):
        s = (j + 0.5) / sched.steps
        vx = -0.5 * (1.0 - s)
        vz = -0.5 * s * sign
        c = 0.5 * (1.0 - 2.0 * s) if kind == "bv" else 0.5
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
@pytest.mark.parametrize("steps", [1, 2, 3, 7, 63, 64, 65, 100, 128, 129, 5000, (1 << 14) + 3])
def test_prefix_integrator_matches_scalar_loop(kind, steps):
    # 63 to 129 straddle the tree's scalar tail (SCAN_TAIL = 64 steps, and one
    # array level above it); the last step count crosses a chunk boundary; the
    # loop's own rounding error reaches 6e-13 at 16387 steps (the product
    # tree's stays below 1e-14)
    for total_time in (0.01, 1.0, 50.0, 1e4):
        sched = Schedule(total_time, steps)
        for f_bit, phi in enumerate(kind_pair(kind, total_time, steps)):
            assert np.max(np.abs(phi - seed_two_level_loop(kind, f_bit, sched))) <= 1e-12


def test_chunks_carry_the_state(monkeypatch):
    sched = Schedule(5.0, 101)
    whole = evolve_two_level(TwoLevelBlock(1), sched)
    spans = []
    su2_steps, su2_mid_step = evolution._su2_steps, evolution._su2_mid_step

    def spy(block, sched, start, stop):
        spans.append((start, stop))
        return su2_steps(block, sched, start, stop)

    def spy_mid(block, sched):
        spans.append((sched.steps // 2, sched.steps // 2 + 1))
        return su2_mid_step(block, sched)

    monkeypatch.setattr(evolution, "TWO_LEVEL_CHUNK", 7)
    monkeypatch.setattr(evolution, "_su2_steps", spy)
    monkeypatch.setattr(evolution, "_su2_mid_step", spy_mid)
    chunked = evolve_two_level(TwoLevelBlock(1), sched)
    # the first half in chunks, then the middle step of the odd step count
    assert spans == [(start, min(start + 7, 50)) for start in range(0, 50, 7)] + [(50, 51)]
    assert np.max(np.abs(chunked - whole)) <= 1e-14


@pytest.mark.parametrize("kind", ["bv", "simon"])
@pytest.mark.parametrize("steps", [1, 2, 3, 64, 65, 129, 1001, 5000, 8193, 16387, 2 * CHUNK + 3])
def test_mirrored_half_matches_every_step_built(kind, steps):
    # the reference builds and multiplies all N steps; evolve_two_level builds
    # the first half and reflects it, which rounds in another order (2.4e-14 at
    # most over these cases)
    for total_time in (1.0, 37.3, 1000.0):
        sched = Schedule(total_time, steps)
        for f_bit, phi in enumerate(kind_pair(kind, total_time, steps)):
            assert np.max(np.abs(phi - unmirrored_branch(kind, f_bit, sched))) <= 1e-13


@pytest.mark.parametrize("f_bit", [0, 1])
@pytest.mark.parametrize("steps", [2, 3, 65, 1001, 5000])
def test_mirror_is_the_second_half_built_directly(f_bit, steps):
    block, sched, half = TwoLevelBlock(f_bit), Schedule(37.3, steps), steps // 2
    first = evolution._su2_product(evolution._su2_steps(block, sched, 0, half))
    second = evolution._su2_product(evolution._su2_steps(block, sched, steps - half, steps))
    assert np.max(np.abs(np.subtract(evolution._mirror(first, f_bit), second))) <= 1e-14


@pytest.mark.parametrize("steps", [1, 2, 3, 1001, 5000, 2 * CHUNK + 3])
def test_only_half_the_steps_are_built(monkeypatch, steps):
    built = []
    su2_steps, su2_mid_step = evolution._su2_steps, evolution._su2_mid_step

    def spy(block, sched, start, stop):
        built.append(stop - start)
        return su2_steps(block, sched, start, stop)

    def spy_mid(block, sched):
        built.append(1)
        return su2_mid_step(block, sched)

    monkeypatch.setattr(evolution, "_su2_steps", spy)
    monkeypatch.setattr(evolution, "_su2_mid_step", spy_mid)
    evolve_two_level(TwoLevelBlock(0), Schedule(37.3, steps))
    assert sum(built) == math.ceil(steps / 2)


def test_scalar_middle_step_is_the_array_step():
    # the s = 1/2 step of an odd N is built in scalar math with the array
    # step's operations; it differs from it by at most the ulp that numpy's
    # and math's sin and cos may disagree by (none where they agree)
    picks = np.random.default_rng(64)
    for total_time, steps in zip(picks.uniform(0.01, 5000, 400), picks.integers(0, 10**6, 400)):
        sched = Schedule(float(total_time), 2 * int(steps) + 1)
        for f_bit in (0, 1):
            block = TwoLevelBlock(f_bit)
            array = evolution._su2_steps(block, sched, sched.steps // 2, sched.steps // 2 + 1)[:, 0]
            scalar = evolution._su2_mid_step(block, sched)
            assert np.max(np.abs(np.subtract(scalar, array))) <= 2.3e-16


def test_two_level_memory_is_bounded_by_the_chunk():
    # 2^20 step matrices alone would take 64 MiB
    tracemalloc.start()
    try:
        phi = evolve_two_level(TwoLevelBlock(0), Schedule(50.0, 1 << 20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(float(np.vdot(phi, phi).real) - 1.0) <= 1e-9
    assert peak <= 2 << 20


def test_two_level_drift_check_fails_on_nan(monkeypatch):
    monkeypatch.setattr(evolution, "_su2_product", lambda m: (complex("nan"), 0j))
    with pytest.raises(IntegrationError):
        evolve_two_level(TwoLevelBlock(0), Schedule(1.0, 10))


def poison_step(monkeypatch, bad, value):
    """Make _su2_steps, or _su2_mid_step for the middle one, set step ``bad``'s
    (a, b) to value(a, b)."""
    su2_steps, su2_mid_step = evolution._su2_steps, evolution._su2_mid_step

    def poisoned(block, sched, start, stop):
        m = su2_steps(block, sched, start, stop)
        if start <= bad < stop:
            m[:, bad - start] = value(m[:, bad - start])
        return m

    def poisoned_mid(block, sched):
        ab = su2_mid_step(block, sched)
        return tuple(value(np.array(ab)).tolist()) if bad == sched.steps // 2 else ab

    monkeypatch.setattr(evolution, "_su2_steps", poisoned)
    monkeypatch.setattr(evolution, "_su2_mid_step", poisoned_mid)


@pytest.mark.parametrize("steps,bad", [(40, 17), (40, 19), (2003, 1000), (1001, 0), (1001, 500)],
                         ids=["tail", "tail-last", "array-level-last", "first", "middle"])
def test_nan_step_fails_the_drift_check_through_the_scan(monkeypatch, steps, bad):
    # only steps below N // 2 and the middle step of an odd N are built; the
    # 20 built steps of 40 run in the scalar tail alone; step 1000, the last
    # built of 2003, is the unpaired one that every array level carries up
    # unchanged, so its NaN reaches the product alone, which the check over
    # every state still sees
    assert (steps // 2 <= evolution.SCAN_TAIL) == (steps == 40)
    poison_step(monkeypatch, bad, lambda ab: ab * np.nan)
    with pytest.raises(IntegrationError):
        evolve_two_level(TwoLevelBlock(0), Schedule(1.0, steps))


@pytest.mark.parametrize("steps,scales", [
    (40, {17: 1 + 1e-5}),
    (1001, {300: 1 + 1e-5}),
    (2003, {1000: 1 + 1e-5}),
    (1001, {500: 1 + 1e-5}),
    (40, {5: 1 + 1e-5, 17: 1 / (1 + 1e-5)}),
    (1001, {100: 1 + 1e-5, 400: 1 / (1 + 1e-5)}),
    (2 * (CHUNK + 1808), {100: math.sqrt(1 + 4.5e-7), CHUNK + 800: math.sqrt(1 + 7e-7),
                          CHUNK + 1300: 1 / math.sqrt(1 + 7e-7)}),
    (1000, {0: math.sqrt(1 + 4e-7), 1: 1 / (1 + 4e-7)}),
    (40, {0: 10.0, 1: 10.0, 2: 10.0, 3: 10.0}),
], ids=["tail", "array-level", "array-level-last", "middle", "undone-in-tail",
        "undone-in-array-level", "carried-into-next-chunk", "seen-only-in-the-mirrored-half",
        "bound-past-expm1-overflow"])
def test_scaled_step_fails_the_drift_check(monkeypatch, steps, scales):
    # a step that is (1 + 1e-5) times a unitary leaves every later state 2e-5
    # off in squared norm, 20 times the limit, wherever the tree multiplies it
    # in; step 500 of 1001 is the middle one; the "undone" cases bring the
    # norm back to 1 before the middle, so only the states between their steps
    # and between their mirrors are off; in the carried case the first half
    # spans two chunks, whose own steps move the squared norm by at most 7e-7,
    # and only the norm carried out of the first puts the states between steps
    # CHUNK + 800 and CHUNK + 1300 1.15e-6 off: the final state (9e-7 off) and
    # the mirrored states (within 9e-7) do not show it; in the last case the
    # first half and the final state stay within 4e-7 and 8e-7, and only the
    # state after the mirror of step 1, (1 + 4e-7)^-3, is 1.2e-6 off; in the
    # last case the drift bound's exponent, 2 * 4 * 99, is past math.expm1's
    # overflow, which must raise IntegrationError, not OverflowError
    for bad, scale in scales.items():
        poison_step(monkeypatch, bad, lambda ab, scale=scale: ab * scale)
    with pytest.raises(IntegrationError):
        evolve_two_level(TwoLevelBlock(0), Schedule(1.0, steps))


def test_two_level_peak_memory():
    # the product tree keeps no state per step, and only the first half of the
    # steps is built: 5000 steps peak at 208 KiB (413 KiB with all of them
    # built, 718 KiB when every intermediate state was written)
    evolve_two_level(TwoLevelBlock(0), Schedule(50.0, 5000))
    tracemalloc.start()
    try:
        evolve_two_level(TwoLevelBlock(0), Schedule(50.0, 5000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 260 << 10


def test_step_doubling_quarters_the_error():
    reference = evolve_two_level(TwoLevelBlock(0), Schedule(5.0, 1 << 16))
    errors = []
    for steps in (250, 500, 1000):
        phi = evolve_two_level(TwoLevelBlock(0), Schedule(5.0, steps))
        errors.append(np.max(np.abs(phi - reference)))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 <= coarse / fine <= 5.0


def test_assemble_bv_ideal_branches():
    psi = assemble(BvMask(2, 2), E0, E1)
    expected = np.zeros(8, dtype=complex)
    for w, f in [(0, 0), (1, 0), (2, 1), (3, 1)]:
        expected[2 * w + f] = 0.5
    np.testing.assert_allclose(psi.amps, expected, atol=1e-15)


def test_assemble_bv_plus_branches_give_initial_state():
    psi = assemble(BvMask(3, 5), PLUS, PLUS)
    np.testing.assert_allclose(psi.amps, plus_state(3, 1).amps, atol=1e-15)


def test_assemble_bv_matches_full_evolution():
    mask = BvMask(3, 5)
    sched = Schedule(50.0, 5000)
    full = evolve_full(interpolated(mask), plus_state(3, 1), sched)
    factored = assemble(mask, *branch_pair(sched.total_time, sched.steps))
    assert np.max(np.abs(full.final_state.amps - factored.amps)) <= 1e-8


def test_assemble_simon_ideal_branches():
    oracle = simon_build(2, 3)
    psi = assemble(oracle, E0, E1)
    expected = np.zeros(8, dtype=complex)
    for w in range(4):
        expected[(w << 1) + simon_eval(oracle, w)] = 0.5
    np.testing.assert_allclose(psi.amps, expected, atol=1e-15)


@pytest.mark.parametrize("T", [5.0, 50.0])
def test_assemble_simon_coset_grouping(T):
    # amplitudes are constant on cosets {w, w xor a} for ideal and evolved branches
    oracle = simon_build(3, 5)
    phi0, phi1 = branch_pair(T, int(100 * T))
    mat = assemble(oracle, phi0, phi1).as_matrix()
    for w in range(8):
        np.testing.assert_allclose(mat[w], mat[w ^ 5], atol=1e-15)


def test_assemble_simon_matches_full_evolution():
    oracle = simon_build(3, 5)
    sched = Schedule(50.0, 5000)
    full = evolve_full(interpolated(oracle), plus_state(3, 2), sched)
    phi0, phi1 = branch_pair(sched.total_time, sched.steps)
    factored = assemble(oracle, phi0, phi1)
    assert np.max(np.abs(full.final_state.amps - factored.amps)) <= 1e-8


def test_full_state_fidelity_is_register_size_independent():
    sched = Schedule(50.0, 5000)
    fidelities = []
    for n in (2, 3, 4):
        mask = BvMask(n, (1 << n) - 1)
        result = evolve_full(interpolated(mask), plus_state(n, 1), sched)
        fidelities.append(fidelity(bv_target(mask), result.final_state))
    assert max(fidelities) - min(fidelities) <= 1e-8


def test_evolve_full_validation():
    mask = BvMask(2, 1)
    h = interpolated(mask)
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
        evolve_full(interpolated(BvMask(2, 1)), plus_state(2, 1), sched)


def test_assemble_rejects_unnormalized_branches():
    with pytest.raises(DomainError):
        assemble(BvMask(2, 1), 2.0 * E0, E1)


def test_evolution_is_bit_identical_within_a_build():
    sched = Schedule(5.0, 500)
    first, second = (branch_pair(5.0, 500)[0] for _ in range(2))
    assert np.array_equal(first, second)
    mask = BvMask(2, 2)
    h = interpolated(mask)
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
        h, dims = interpolated(BvMask(3, 5)), (3, 1)
    else:
        h, dims = interpolated(simon_build(3, 5, scramble_seed=2)), (3, 2)
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
    phi0, phi1 = branch_pair(sched.total_time, sched.steps)
    for oracle in (BvMask(16, 0b1011_0011_1000_1101), simon_build(8, 0b1011_0110)):
        full = evolve_full(interpolated(oracle), plus_state(oracle.n, oracle.m), sched)
        factored = assemble(oracle, phi0, phi1)
        assert np.max(np.abs(full.final_state.amps - factored.amps)) <= 1e-8
