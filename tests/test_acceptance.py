"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import cmath
import functools
import math

import numpy as np

from adiabatic_sim.evolution import Schedule, assemble, evolve_full, evolve_two_level
from adiabatic_sim.gf2 import dot2
from adiabatic_sim.hamiltonians import TwoLevelBlock, gap, interpolated, min_gap_scan
from adiabatic_sim.measurement import (
    RandomSource,
    dense_shot,
    rotate_output,
    simon_factored_x_probs,
    simon_sample_factored,
)
from adiabatic_sim.oracles import BvMask, simon_build
from adiabatic_sim.protocols import (
    RunConfig,
    branch_pair,
    classical_simon,
    resolve_config,
    run_bv,
    run_simon,
)
from adiabatic_sim.qstate import SIGMA_X, fwht_subsystem, plus_state

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)


def criterion(num: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"FAIL  criterion {num}: {title}")
                raise
            print(f"PASS  criterion {num}: {title}")

        return wrapper

    return decorate


@criterion(1, "full vs factored evolution agree to 1e-8")
def test_criterion_1_decoupling():
    for total_time in (1.0, 5.0, 50.0):
        sched = Schedule(total_time, int(100 * total_time))
        phi0, phi1 = branch_pair(total_time, sched.steps)
        for n in (2, 3, 4):
            mask = BvMask(n, ((1 << n) - 1) & 0b1011)
            full = evolve_full(interpolated(mask), plus_state(n, 1), sched)
            factored = assemble(mask, phi0, phi1)
            deviation = np.max(np.abs(full.final_state.amps - factored.amps))
            assert deviation <= 1e-8, (n, total_time, deviation)
        for n in (2, 3):
            oracle = simon_build(n, (1 << n) - 1)
            full = evolve_full(interpolated(oracle), plus_state(n, n - 1), sched)
            factored = assemble(oracle, phi0, phi1)
            deviation = np.max(np.abs(full.final_state.amps - factored.amps))
            assert deviation <= 1e-8, (n, total_time, deviation)


@criterion(2, "minimum gap: closed form to 1e-12 and dense scan at 1/sqrt(2)")
def test_criterion_2_minimum_gap():
    for s in np.linspace(0.0, 1.0, 1000):
        s = float(s)
        assert abs(gap(s) - math.hypot(1.0 - s, s)) <= 1e-12
    target = 1.0 / math.sqrt(2.0)
    for h in (interpolated(BvMask(2, 2)), interpolated(simon_build(2, 3))):
        scan = min_gap_scan(h, grid=201)
        assert abs(scan.gap_min - target) <= 1e-3, scan
        assert abs(scan.s_min - 0.5) <= 5e-3, scan


@criterion(3, "adiabatic quality at T=50 is register-size independent")
def test_criterion_3_n_independence():
    phi0, _ = branch_pair(50.0, 5000)
    branch_fidelity = abs(phi0[0]) ** 2
    assert branch_fidelity >= 0.999
    factored_fidelities = []
    for n in range(2, 11):
        report = run_bv(RunConfig(problem="bv", n=n, seed=40 + n))
        assert report.per_run_fidelity >= 0.999
        factored_fidelities.append(report.per_run_fidelity)
    assert max(factored_fidelities) - min(factored_fidelities) <= 1e-12
    for n in (2, 3, 4):
        report = run_bv(RunConfig(problem="bv", n=n, seed=60 + n, path="full"))
        assert abs(report.per_run_fidelity - branch_fidelity) <= 1e-8


@criterion(4, "BV readout statistics: restart 1/2, exact recovery, 2^-r failures")
def test_criterion_4_bv_readout():
    # exact restart probability from the ideal final state
    for n, a in ((3, 5), (4, 0), (6, 0b101101)):
        state = assemble(BvMask(n, a), E0, E1)
        rotated = fwht_subsystem(state, "B")
        p_restart = float(np.sum(np.abs(rotated.as_matrix()[:, 0]) ** 2))
        assert abs(p_restart - 0.5) <= 1e-12

    # empirical restart fraction over 10^4 seeded shots
    rotated, marginal = rotate_output(assemble(BvMask(4, 9), E0, E1))
    restarts = sum(
        dense_shot(rotated, marginal, RandomSource(seed)) is None for seed in range(10_000)
    )
    assert 0.48 <= restarts / 10_000 <= 0.52, restarts

    # conditioned on the informative branch, recovery is exact for n <= 10
    for n in (2, 4, 6, 8, 10):
        for trial in range(40):
            cfg = resolve_config(RunConfig(problem="bv", n=n, seed=1000 * n + trial))
            report = run_bv(cfg)
            assert report.success and report.recovered_a == cfg.a

    # failure fraction at max_repeats=10 stays within 4x of 2^-10
    failures = sum(
        not run_bv(
            RunConfig(problem="bv", n=4, a=9, seed=seed, max_repeats=10)
        ).success
        for seed in range(10_000)
    )
    assert failures / 10_000 <= 0.004, failures


@criterion(5, "Simon rows orthogonal; rank n-1 within n+20 runs in 95% of trials")
def test_criterion_5_simon_protocol():
    # exact conditional distributions put zero mass on non-orthogonal rows
    phi0, phi1 = branch_pair(50.0, 5000)
    for n in (2, 3, 4):
        oracle = simon_build(n, (1 << n) - 1, scramble_seed=n)
        for branches in ((E0, E1), (phi0, phi1)):
            state = assemble(oracle, branches[0], branches[1])
            marginal = np.sum(np.abs(state.as_matrix()) ** 2, axis=0)
            violation = 0.0
            for y in range(1 << (n - 1)):
                probs = simon_factored_x_probs(oracle, branches[0], branches[1], y)
                violation += marginal[y] * sum(
                    p for x, p in enumerate(probs) if dot2(x, oracle.a) == 1
                )
            assert violation <= 1e-12, (n, violation)

    # sampled shots at T=50: orthogonal in at least 99% (here: all) of shots
    oracle6 = simon_build(6, 0b110101)
    rng = RandomSource(7)
    orthogonal = sum(
        dot2(simon_sample_factored(oracle6, phi0, phi1, rng), oracle6.a) == 0
        for _ in range(2000)
    )
    assert orthogonal / 2000 >= 0.99

    # rank completion within the n+20 budget, with exact mask recovery
    for n in (4, 6, 8, 10):
        within_budget = 0
        trials = 1000
        for trial in range(trials):
            cfg = resolve_config(RunConfig(problem="simon", n=n, seed=trial))
            report = run_simon(cfg)
            if report.success:
                assert report.recovered_a == cfg.a, (n, trial)
                if report.rows_collected <= n + 20:
                    within_budget += 1
        assert within_budget / trials >= 0.95, (n, within_budget)


@criterion(6, "exponential classical/quantum query separation")
def test_criterion_6_query_separation():
    sizes = [6, 8, 10, 12, 14]
    medians = []
    for n in sizes:
        oracle = simon_build(n, (1 << (n - 1)) + 1)
        queries = sorted(
            classical_simon(oracle, RandomSource(seed)).queries
            for seed in range(1000)
        )
        medians.append(queries[500])
    classical_slope = np.polyfit(sizes, np.log2(medians), 1)[0]
    assert 0.4 <= classical_slope <= 0.6, (medians, classical_slope)

    mean_rows = []
    for n in sizes:
        total = 0
        trials = 200
        for trial in range(trials):
            report = run_simon(RunConfig(problem="simon", n=n, seed=5000 + trial))
            total += report.rows_collected
        mean_rows.append(total / trials)
    quantum_slope = np.polyfit(sizes, mean_rows, 1)[0]
    assert 0.7 <= quantum_slope <= 1.3, (mean_rows, quantum_slope)


@criterion(7, "unitarity to 1e-9 and O(N^-2) convergence")
def test_criterion_7_integrator_contract():
    for total_time in (1.0, 5.0, 50.0):
        sched = Schedule(total_time, int(100 * total_time))
        full_bv = evolve_full(interpolated(BvMask(2, 2)), plus_state(2, 1), sched)
        assert full_bv.norm_drift <= 1e-9
        full_simon = evolve_full(
            interpolated(simon_build(2, 3)), plus_state(2, 1), sched
        )
        assert full_simon.norm_drift <= 1e-9
        phi = branch_pair(total_time, sched.steps)[0]
        assert abs(float(np.vdot(phi, phi).real) - 1.0) <= 1e-9

    reference = evolve_two_level(TwoLevelBlock(0), Schedule(50.0, 1 << 18))
    errors = []
    for steps in (512, 1024, 2048, 4096):
        phi = evolve_two_level(TwoLevelBlock(0), Schedule(50.0, steps))
        errors.append(float(np.max(np.abs(phi - reference))))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 <= coarse / fine <= 5.0, errors


@criterion(8, "no relative phases: phi_1 = sigma_x phi_0 to 1e-12")
def test_criterion_8_phase_coherence():
    for total_time in (1.0, 5.0, 50.0):
        sched = Schedule(total_time, int(100 * total_time))
        phi0 = branch_pair(total_time, sched.steps)[0]
        phi1 = evolve_two_level(TwoLevelBlock(1), sched) * cmath.exp(-0.5j * total_time)
        assert np.max(np.abs(phi1 - SIGMA_X @ phi0)) <= 1e-12
