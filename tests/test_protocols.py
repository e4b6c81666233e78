"""End-to-end protocol runs, classical baselines, and sweeps."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from adiabatic_sim import protocols
from adiabatic_sim.errors import DomainError
from adiabatic_sim.evolution import Schedule, evolve_two_level
from adiabatic_sim.hamiltonians import TwoLevelBlock
from adiabatic_sim.measurement import RandomSource
from adiabatic_sim.oracles import BvMask, simon_build
from adiabatic_sim.protocols import (
    RunConfig,
    branch_pair,
    classical_bv,
    classical_simon,
    resolve_config,
    run_bv,
    run_simon,
    sweep,
)


def test_run_bv_end_to_end():
    cfg = RunConfig(problem="bv", n=8, a=0b10110011, total_time=50.0, steps=5000, seed=1)
    report = run_bv(cfg)
    assert report.success
    assert report.recovered_a == 0b10110011
    assert report.per_run_fidelity >= 0.999
    assert report.quantum_runs == report.restarts + 1


def test_run_bv_full_path():
    cfg = RunConfig(problem="bv", n=3, a=5, total_time=50.0, steps=5000, path="full", seed=4)
    report = run_bv(cfg)
    assert report.success
    assert report.recovered_a == 5
    assert report.per_run_fidelity >= 0.999


def test_run_bv_deterministic():
    cfg = RunConfig(problem="bv", n=6, a=None, seed=77)
    first = asdict(run_bv(cfg))
    second = asdict(run_bv(cfg))
    first.pop("wall_time")
    second.pop("wall_time")
    assert first == second


def test_run_bv_mean_runs_is_geometric():
    # restart probability 1/2 makes attempts geometric with mean 2
    total = 0
    trials = 2000
    for seed in range(trials):
        report = run_bv(RunConfig(problem="bv", n=4, a=9, seed=seed))
        total += report.quantum_runs
    assert total / trials == pytest.approx(2.0, abs=0.1)


def test_run_bv_failure_report_not_exception():
    # max_repeats=1 fails whenever the first readout lands on the restart branch
    failures = 0
    for seed in range(50):
        report = run_bv(RunConfig(problem="bv", n=4, a=9, seed=seed, max_repeats=1))
        if not report.success:
            failures += 1
            assert report.recovered_a is None
            assert report.restarts == 1
    assert 10 <= failures <= 40


def test_run_simon_end_to_end():
    cfg = RunConfig(problem="simon", n=6, a=0b101001, total_time=50.0, steps=5000, seed=3)
    report = run_simon(cfg)
    assert report.success
    assert report.recovered_a == 0b101001
    assert report.rows_collected <= 26
    assert report.quantum_runs == report.rows_collected


def test_run_simon_full_path_matches_factored_success():
    cfg = RunConfig(problem="simon", n=3, a=5, total_time=50.0, steps=5000, path="full", seed=9)
    report = run_simon(cfg)
    assert report.success
    assert report.recovered_a == 5


def test_run_simon_scrambled_oracle():
    cfg = RunConfig(problem="simon", n=5, a=0b1101, seed=8, scramble_seed=31)
    report = run_simon(cfg)
    assert report.success
    assert report.recovered_a == 0b1101


def test_run_simon_within_footnote_budget():
    n = 6
    finished = 0
    trials = 200
    for seed in range(trials):
        report = run_simon(RunConfig(problem="simon", n=n, seed=seed))
        if report.success and report.rows_collected <= n + 20:
            finished += 1
        if report.success:
            planted = resolve_config(RunConfig(problem="simon", n=n, seed=seed)).a
            assert report.recovered_a == planted
    assert finished / trials >= 0.95


def test_reported_fidelity_matches_dense_inner_product():
    # the factored path's closed-form fidelity equals <target|psi> computed
    # on materialized states
    from adiabatic_sim.evolution import assemble_bv, assemble_simon
    from adiabatic_sim.qstate import fidelity

    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    phi0, phi1 = branch_pair("simon", 5.0, 500)
    oracle_seeded = simon_build(3, 5, scramble_seed=9)
    dense = fidelity(
        assemble_simon(oracle_seeded, e0, e1),
        assemble_simon(oracle_seeded, phi0, phi1),
    )
    report = run_simon(
        RunConfig(problem="simon", n=3, a=5, total_time=5.0, steps=500, seed=1,
                  scramble_seed=9)
    )
    assert report.per_run_fidelity == pytest.approx(dense, abs=1e-12)

    phi0b, phi1b = branch_pair("bv", 5.0, 500)
    mask = BvMask(3, 5)
    dense_bv = fidelity(assemble_bv(mask, e0, e1), assemble_bv(mask, phi0b, phi1b))
    report_bv = run_bv(RunConfig(problem="bv", n=3, a=5, total_time=5.0, steps=500, seed=1))
    assert report_bv.per_run_fidelity == pytest.approx(dense_bv, abs=1e-12)


def test_simon_zero_mask_rejected_at_validation():
    with pytest.raises(DomainError):
        RunConfig(problem="simon", n=4, a=0).validate()


def test_config_validation_errors():
    with pytest.raises(DomainError):
        RunConfig(problem="bv", n=40, path="full").validate()
    with pytest.raises(DomainError):
        RunConfig(problem="deutsch", n=3).validate()
    with pytest.raises(DomainError):
        RunConfig(problem="bv", n=3, total_time=-1.0).validate()
    with pytest.raises(DomainError):
        RunConfig(problem="bv", n=3, a=8).validate()


def test_resolve_config_draws_mask_deterministically():
    cfg = RunConfig(problem="simon", n=5, seed=123)
    first = resolve_config(cfg)
    second = resolve_config(cfg)
    assert first.a == second.a
    assert 0 < first.a < 32
    assert first.max_repeats == 5 + 40
    assert resolve_config(first) == first  # idempotent


def test_classical_bv_bit_probe():
    result = classical_bv(BvMask(5, 19))
    assert result.queries == 5 and result.a == 19
    result = classical_bv(BvMask(1, 0))
    assert result.queries == 1 and result.a == 0
    for a in (0, 1, 0b1011, 0b11111):
        res = classical_bv(BvMask(5, a))
        assert res.queries == 5 and res.a == a


def test_classical_simon_pigeonhole_bound():
    oracle = simon_build(2, 3)
    for seed in range(50):
        result = classical_simon(oracle, RandomSource(seed))
        assert result.queries <= 3
        assert result.a == 3


def test_classical_simon_always_recovers_mask():
    oracle = simon_build(6, 0b100101, scramble_seed=2)
    for seed in range(100):
        assert classical_simon(oracle, RandomSource(seed)).a == 0b100101


def test_classical_simon_birthday_scaling():
    medians = {}
    for n in (6, 10):
        oracle = simon_build(n, 1)
        queries = sorted(
            classical_simon(oracle, RandomSource(seed)).queries for seed in range(300)
        )
        medians[n] = queries[150]
    # four extra bits should cost about 2^2 = 4x the queries
    ratio = medians[10] / medians[6]
    assert 2.0 <= ratio <= 8.0


def test_sweep_fidelity_increases_with_runtime():
    # strictly increasing while the anneal is too fast; once deep in the
    # adiabatic regime the error envelope decays but oscillates in T, so only
    # the floor is asserted there
    base = RunConfig(problem="bv", n=4, a=9, seed=21)
    rows = sweep("T", [1.0, 2.0, 5.0, 10.0, 20.0, 50.0], base, trials=5)
    fidelities = [row.mean_fidelity for row in rows]
    assert all(b > a for a, b in zip(fidelities[:4], fidelities[1:4]))
    assert all(f >= 0.99 for f in fidelities[3:])
    assert fidelities[-1] >= 0.999


def test_sweep_bv_fidelity_is_register_size_independent():
    base = RunConfig(problem="bv", a=None, n=2, seed=5)
    rows = sweep("n", [2, 3, 4, 5, 6, 7, 8], base, trials=3)
    values = {row.mean_fidelity for row in rows}
    assert max(values) - min(values) <= 1e-12


def test_sweep_simon_rows_scale_linearly():
    base = RunConfig(problem="simon", n=2, seed=11)
    rows = sweep("n", [4, 6, 8, 10], base, trials=40)
    means = [row.mean_rows for row in rows]
    slope = np.polyfit([4, 6, 8, 10], means, 1)[0]
    assert 0.7 <= slope <= 1.3


def test_sweep_steps_error_shrinks_quadratically():
    # mean_fidelity converges to the reference value at O(steps^-2)
    base = RunConfig(problem="bv", n=4, a=9, seed=2)
    rows = sweep("steps", [500, 1000, 2000, 4000], base, trials=1)
    phi_ref, _ = branch_pair("bv", 50.0, 1 << 16)
    fid_ref = abs(phi_ref[0]) ** 2
    errors = [abs(row.mean_fidelity - fid_ref) for row in rows]
    for coarse, fine in zip(errors, errors[1:]):
        assert 2.5 <= coarse / fine <= 5.5


def test_sweep_validation():
    base = RunConfig(problem="bv", n=4)
    with pytest.raises(DomainError):
        sweep("T", [], base, trials=3)
    with pytest.raises(DomainError):
        sweep("mass", [1.0], base, trials=3)
    with pytest.raises(DomainError):
        sweep("T", [1.0], base, trials=0)


def test_sweep_validates_every_value_before_running(monkeypatch):
    calls = []
    monkeypatch.setattr(protocols, "run", lambda cfg: calls.append(cfg))
    with pytest.raises(DomainError):
        sweep("steps", [200000, 2000000], RunConfig(problem="bv", n=4), trials=1)
    assert calls == []


def test_sweep_deterministic():
    base = RunConfig(problem="simon", n=4, seed=17)
    first = sweep("T", [5.0, 50.0], base, trials=10)
    second = sweep("T", [5.0, 50.0], base, trials=10)
    for row_a, row_b in zip(first, second):
        a = asdict(row_a)
        b = asdict(row_b)
        a.pop("wall_ms")
        b.pop("wall_ms")
        assert a == b


@pytest.mark.parametrize("kind", ["bv", "simon"])
def test_branch_pair_phi1_is_the_evolved_second_branch(kind):
    # branch_pair takes phi_1 as sigma_x phi_0; it equals the f_bit = 1
    # evolution to the bit
    for total_time, steps in ((0.3, 7), (5.0, 500), (37.5, 4000), (50.0, 20001)):
        _, phi1 = branch_pair(kind, total_time, steps)
        evolved = evolve_two_level(TwoLevelBlock(1, kind), Schedule(total_time, steps))
        assert np.array_equal(phi1, evolved)


def test_branch_pair_miss_evolves_once(monkeypatch):
    calls = []

    def counting(block, sched):
        calls.append(block)
        return evolve_two_level(block, sched)

    monkeypatch.setattr(protocols, "evolve_two_level", counting)
    protocols._branch_pair_cached.cache_clear()
    branch_pair("simon", 12.5, 1250)
    branch_pair("simon", 12.5, 1250)
    assert calls == [TwoLevelBlock(0, "simon")]


@pytest.mark.parametrize("run,problem", [(run_bv, "bv"), (run_simon, "simon")])
def test_factored_runs_recover_mask_at_n60(run, problem):
    for a in (None, (1 << 59) | 0b1011):
        cfg = resolve_config(RunConfig(problem=problem, n=60, a=a, seed=6))
        report = run(cfg)
        assert report.success and report.recovered_a == cfg.a


def test_factored_caps():
    RunConfig(problem="simon", n=60).validate()
    with pytest.raises(DomainError):
        RunConfig(problem="bv", n=61).validate()
    with pytest.raises(DomainError):
        RunConfig(problem="simon", n=61).validate()
    # scrambling materializes 2^(n-1) labels, so simon_build caps it at n <= 20
    RunConfig(problem="simon", n=20, scramble_seed=1).validate()
    with pytest.raises(DomainError):
        RunConfig(problem="simon", n=25, scramble_seed=1).validate()
    with pytest.raises(DomainError):
        run_simon(RunConfig(problem="simon", n=21, scramble_seed=1))


@pytest.mark.parametrize("total_time", [math.inf, math.nan])
def test_total_time_must_be_finite(total_time):
    with pytest.raises(DomainError):
        RunConfig(problem="bv", n=3, total_time=total_time, steps=10).validate()


def test_full_path_cap_is_twenty_qubits():
    # the matrix-free full path is capped on state size, 2^20 amplitudes
    RunConfig(problem="bv", n=19, path="full").validate()
    RunConfig(problem="simon", n=10, path="full").validate()
    with pytest.raises(DomainError):
        RunConfig(problem="bv", n=20, path="full").validate()
    with pytest.raises(DomainError):
        RunConfig(problem="simon", n=11, path="full").validate()


def test_steps_ceiling():
    RunConfig(problem="bv", n=4, steps=1 << 20).validate()
    with pytest.raises(DomainError):
        RunConfig(problem="bv", n=4, steps=(1 << 20) + 1).validate()


@pytest.mark.parametrize("n,scramble_seed,a,runs,fidelity", [
    (12, None, 218, 11, 0.9957656663377655),
    (12, 7, 218, 11, 0.9957656663377655),
    (13, None, 1865, 15, 0.9953816171271908),
    (13, 7, 1865, 12, 0.9953816171271908),
    (14, None, 7783, 17, 0.9949977160376061),
    (14, 7, 7783, 14, 0.9949977160376061),
])
def test_seeded_simon_reports_unchanged(n, scramble_seed, a, runs, fidelity):
    # a and runs recorded when run_simon still built the oracle's lookup
    # table; fidelity re-recorded under schema 4 (prefix-product integrator)
    report = run_simon(RunConfig(problem="simon", n=n, seed=100 + n, scramble_seed=scramble_seed))
    assert report.success and report.recovered_a == a
    assert report.quantum_runs == report.rows_collected == runs
    assert report.per_run_fidelity == fidelity


@pytest.mark.parametrize("fields,a,restarts,fidelity", [
    (dict(n=8, seed=108), 47, 0, 0.999614317681829),
    (dict(n=16, seed=116), 37700, 2, 0.999614317681829),
    (dict(n=60, seed=160), 14234013176458300, 1, 0.999614317681829),
    (dict(n=4, a=0, seed=3), 0, 4, 0.999614317681829),
    (dict(n=12, seed=7, total_time=5.0, steps=500), 670, 1, 0.8389771197853385),
    (dict(n=5, seed=105, total_time=5.0, steps=500, path="full"), 5, 0, 0.8389771197853415),
], ids=["n8", "n16", "n60", "a0", "T5", "full"])
def test_seeded_bv_reports(fields, a, restarts, fidelity):
    # fidelity recorded under schema 4 (two fidelity formulas) and unchanged;
    # restarts recorded under schema 5, where a shot is one row-bit draw
    report = run_bv(RunConfig(problem="bv", **fields))
    assert report.success and report.recovered_a == a
    assert report.restarts == restarts and report.quantum_runs == restarts + 1
    assert report.per_run_fidelity == fidelity


@pytest.mark.parametrize("run,fields,runs,restarts,rows,fidelity", [
    (run_bv, dict(problem="bv", n=10, total_time=0.5, steps=50, seed=4),
     64, 64, 0, 0.5051892560903585),
    (run_bv, dict(problem="bv", n=4, a=9, path="full", total_time=5.0, steps=200, seed=1,
                  max_repeats=1), 1, 1, 0, 0.838982211240202),
    (run_simon, dict(problem="simon", n=8, seed=3, max_repeats=3), 3, 0, 3, 0.9973033455332856),
    (run_simon, dict(problem="simon", n=8, seed=3, max_repeats=3, scramble_seed=5),
     3, 0, 3, 0.9973033455332856),
    (run_simon, dict(problem="simon", n=4, seed=2, max_repeats=2, path="full", total_time=5.0,
                     steps=200), 2, 0, 2, 0.5905521541517191),
], ids=["bv-short-anneal", "bv-full-one-shot", "simon", "simon-scrambled", "simon-full"])
def test_seeded_budget_exhausted_reports(run, fields, runs, restarts, rows, fidelity):
    # recorded under schema 5: every shot of the budget is spent and no mask is named
    report = run(RunConfig(**fields))
    assert not report.success and report.recovered_a is None
    assert report.quantum_runs == runs
    assert report.restarts == restarts and report.rows_collected == rows
    assert report.per_run_fidelity == fidelity
