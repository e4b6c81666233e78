"""End-to-end protocol runs, classical baselines, and sweeps."""

import json
import math
import random
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

from adiabatic_sim import measurement, protocols
from adiabatic_sim.errors import DomainError
from adiabatic_sim.evolution import Schedule, evolve_two_level
from adiabatic_sim.hamiltonians import TwoLevelBlock
from adiabatic_sim.measurement import RandomSource
from adiabatic_sim.oracles import BvMask, simon_build
from adiabatic_sim.protocols import (
    RunConfig,
    branch_pair,
    classical_simon,
    resolve_config,
    run,
    run_bv,
    run_simon,
    sweep,
)
from helpers import reference_run


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
        RunConfig(problem="simon", n=4, a=0)


def test_config_validation_errors():
    # a config is checked when it is built, so no run can start from a bad one;
    # non-integral sizes and a non-numeric T are DomainErrors, not TypeErrors
    for fields in (dict(problem="bv", n=40, path="full"), dict(problem="deutsch", n=3),
                   dict(problem="bv", n=3, total_time=-1.0), dict(problem="bv", n=3, a=8),
                   dict(problem="bv", n=3, a=5, steps=2.5), dict(problem="bv", n=3, a=5, steps=3.0),
                   dict(problem="simon", n=3.0, a=1), dict(problem="simon", n=3, a=5.0),
                   dict(problem="bv", n=3, max_repeats=2.5), dict(problem="bv", n=3, seed=1.5),
                   dict(problem="simon", n=3, scramble_seed=2.5), dict(problem="bv", n=None),
                   dict(problem="bv", n=3, total_time="50"),
                   dict(problem="bv", n=3, total_time=None)):
        with pytest.raises(DomainError):
            RunConfig(**fields)


def test_replace_checks_the_new_config():
    cfg = RunConfig(problem="bv", n=4, a=9)
    for fields in (dict(n=-1), dict(n=2), dict(steps=0), dict(total_time=math.nan)):
        with pytest.raises(DomainError):
            replace(cfg, **fields)


def test_integer_fields_are_python_ints_on_construction():
    cfg = RunConfig("bv", np.int64(5), seed=np.int64(3), steps=np.int32(40))
    for name in ("n", "seed", "steps"):
        assert type(getattr(cfg, name)) is int
    assert (cfg.n, cfg.seed, cfg.steps) == (5, 3, 40)


def test_default_steps_are_one_hundred_per_unit_time():
    assert resolve_config(RunConfig(problem="bv", n=4)).steps == 5000
    assert resolve_config(RunConfig(problem="bv", n=4, total_time=2.0)).steps == 200
    assert resolve_config(RunConfig(problem="bv", n=4, total_time=0.001)).steps == 1
    assert resolve_config(RunConfig(problem="bv", n=4, total_time=2.0, steps=7)).steps == 7
    # the default is range-checked at construction, like a given step count
    for total_time in (1e5, 1e307):
        with pytest.raises(DomainError):
            RunConfig(problem="bv", n=4, total_time=total_time)
    RunConfig(problem="bv", n=4, total_time=1e307, steps=10)


def test_numpy_integer_configs_run_as_python_ints():
    # they pass validation, and a run reads them as ints: run_simon used to
    # raise AttributeError on a numpy mask, and run_bv reported numpy scalars
    for problem, scramble_seed in (("bv", None), ("simon", None), ("simon", 3)):
        fields = dict(problem=problem, n=5, a=9, steps=200, seed=7, max_repeats=30,
                      scramble_seed=scramble_seed)
        numpy_fields = {key: np.int64(value) if isinstance(value, int) else value
                        for key, value in fields.items()}
        assert resolve_config(RunConfig(**numpy_fields)) == resolve_config(RunConfig(**fields))
        report = asdict(run(RunConfig(**numpy_fields)))
        want = asdict(run(RunConfig(**fields)))
        del report["wall_time"], want["wall_time"]
        assert report == want
        json.dumps(report)


def test_resolve_config_draws_mask_deterministically():
    cfg = RunConfig(problem="simon", n=5, seed=123)
    first = resolve_config(cfg)
    second = resolve_config(cfg)
    assert first.a == second.a
    assert 0 < first.a < 32
    q = protocols._branch_pair_cached("simon", 50.0, 5000)[2]
    assert first.max_repeats == protocols._shot_budget(4, min(q, 1 - q)) == 99
    assert resolve_config(first) == first  # idempotent


def test_shot_budget_edges_and_tail():
    budget, cap = protocols._shot_budget, protocols.MAX_STEPS
    for stages in (1, 4, 59, 1023):
        assert budget(stages, 0.0) == budget(stages, math.nan) == cap
        budgets = [budget(stages, s) for s in np.geomspace(1.0, 1e-12, 400)] + [budget(stages, 0.0)]
        assert budgets == sorted(budgets)  # never fewer shots at a lower success rate
        assert budgets[-2] == cap
        # the exact binomial tail P(fewer than stages successes in B shots) <= 1e-9
        for s in (0.9, 0.5, 0.1, 0.0155, 1e-3):
            B = budget(stages, s)
            if B < cap:
                tail = sum(math.exp(math.lgamma(B + 1) - math.lgamma(j + 1) - math.lgamma(B - j + 1)
                                    + j * math.log(s) + (B - j) * math.log1p(-s))
                           for j in range(stages))
                assert tail <= protocols.BUDGET_FAILURE_PROB
    # the default budget at T = 50: both problems, both paths read the same q
    q = protocols._branch_pair_cached("bv", 50.0, 5000)[2]
    for problem, n, want in (("bv", 3, budget(1, q)), ("simon", 3, budget(2, min(q, 1 - q)))):
        for path in ("factored", "full"):
            assert resolve_config(RunConfig(problem, n, path=path)).max_repeats == want
    assert resolve_config(RunConfig("bv", 3, max_repeats=7)).max_repeats == 7


def test_short_anneals_do_not_run_out_of_shots():
    # at T = 0.5 a shot succeeds rarely (q = 0.0155), which costs shots, not
    # success; the fixed budget of 64 BV shots failed 38 of these 100 seeds
    for seed in range(100):
        assert run_bv(RunConfig("bv", 10, total_time=0.5, steps=50, seed=seed)).success
    for seed in range(20):
        assert run_simon(RunConfig("simon", 12, total_time=0.5, steps=50, seed=seed)).success


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
    base = dict(problem="bv", n=4, a=9, seed=21)
    rows = sweep("T", [1.0, 2.0, 5.0, 10.0, 20.0, 50.0], base, trials=5)
    fidelities = [row.mean_fidelity for row in rows]
    assert all(b > a for a, b in zip(fidelities[:4], fidelities[1:4]))
    assert all(f >= 0.99 for f in fidelities[3:])
    assert fidelities[-1] >= 0.999


def test_sweep_bv_fidelity_is_register_size_independent():
    base = dict(problem="bv", a=None, n=2, seed=5)
    rows = sweep("n", [2, 3, 4, 5, 6, 7, 8], base, trials=3)
    values = {row.mean_fidelity for row in rows}
    assert max(values) - min(values) <= 1e-12


def test_sweep_simon_rows_scale_linearly():
    base = dict(problem="simon", n=2, seed=11)
    rows = sweep("n", [4, 6, 8, 10], base, trials=40)
    means = [row.mean_rows for row in rows]
    slope = np.polyfit([4, 6, 8, 10], means, 1)[0]
    assert 0.7 <= slope <= 1.3


def test_sweep_steps_error_shrinks_quadratically():
    # mean_fidelity converges to the reference value at O(steps^-2)
    base = dict(problem="bv", n=4, a=9, seed=2)
    rows = sweep("steps", [500, 1000, 2000, 4000], base, trials=1)
    phi_ref, _ = branch_pair("bv", 50.0, 1 << 16)
    fid_ref = abs(phi_ref[0]) ** 2
    errors = [abs(row.mean_fidelity - fid_ref) for row in rows]
    for coarse, fine in zip(errors, errors[1:]):
        assert 2.5 <= coarse / fine <= 5.5


def test_sweep_validation():
    base = dict(problem="bv", n=4)
    for axis, values, trials in (("T", [], 3), ("mass", [1.0], 3), ("T", [1.0], 0),
                                 ("T", [1.0], 2.5), ("T", [1.0], 2.0), ("T", ["5"], 1),
                                 ("n", [2.5], 1), ("steps", [3.0], 1)):
        with pytest.raises(DomainError):
            sweep(axis, values, base, trials=trials)


def test_sweep_takes_each_values_default_steps():
    # with no steps in the base, swept T values get 100 T steps each
    base = dict(problem="bv", n=2, a=1, seed=1)
    rows = sweep("T", [1.0, 5.0], base, trials=2)
    # a trial's seed depends on its value's index: pin each row in a sweep
    # over the same values
    pinned = [sweep("T", [1.0, 5.0], {**base, "steps": steps}, trials=2)[i]
              for i, steps in enumerate((100, 500))]
    for row, want in zip(rows, pinned):
        assert replace(row, wall_ms=0.0) == replace(want, wall_ms=0.0)


def test_sweep_validates_every_value_before_running(monkeypatch):
    calls = []
    monkeypatch.setattr(protocols, "run", lambda cfg: calls.append(cfg))
    with pytest.raises(DomainError):
        sweep("steps", [200000, 2000000], dict(problem="bv", n=4), trials=1)
    assert calls == []


def test_sweep_deterministic():
    base = dict(problem="simon", n=4, seed=17)
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
    # 64 and 65 steps: the scan's scalar tail alone, and one array level above it
    for total_time, steps in ((0.3, 7), (2.5, 64), (2.5, 65), (5.0, 500), (37.5, 4000),
                              (50.0, 20001)):
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


def test_branch_pair_is_read_only():
    # branch_pair hands out the cached arrays themselves, so a write must fail
    # rather than corrupt every later run of the schedule
    phi0, phi1 = branch_pair("bv", 3.0, 300)
    assert branch_pair("bv", 3.0, 300)[0] is phi0
    for phi in (phi0, phi1):
        with pytest.raises(ValueError):
            phi[0] = 0.0
        with pytest.raises(ValueError):
            phi *= 2.0
    assert np.array_equal(phi1, phi0[::-1])


def test_cached_branch_overlap_is_real():
    # phi_1 = sigma_x phi_0 makes <phi_0|phi_1> real, so factored runs skip the
    # scrambled sampler's overlap check; 100 schedules, T from 0.01 to 1e4
    for kind in ("bv", "simon"):
        for total_time in np.geomspace(0.01, 1e4, 10):
            for steps in (1, 7, 100, 5000, 40000):
                phi0, phi1 = protocols._branch_pair_cached.__wrapped__(kind, total_time, steps)[:2]
                assert abs(np.vdot(phi0, phi1).imag) <= 1e-12


def test_factored_runs_compute_q_once_per_anneal(monkeypatch):
    # q is memoized with the branch pair: the first run of a schedule computes
    # it once, a second run of that schedule not at all, and a shot only draws
    calls = []
    row_bit_prob = measurement.simon_row_bit_prob

    def counting(phi0, phi1):
        calls.append(1)
        return row_bit_prob(phi0, phi1)

    monkeypatch.setattr(measurement, "simon_row_bit_prob", counting)
    monkeypatch.setattr(protocols, "simon_row_bit_prob", counting)
    protocols._branch_pair_cached.cache_clear()
    for run, fields in [
        (run_bv, dict(problem="bv", n=10, total_time=1.0, steps=100, seed=0)),
        (run_simon, dict(problem="simon", n=12, seed=1)),
        (run_simon, dict(problem="simon", n=12, total_time=37.5, steps=4000, scramble_seed=2)),
    ]:
        for computed in (1, 0):
            calls.clear()
            report = run(RunConfig(**fields))
            assert report.success and report.quantum_runs >= 10
            assert len(calls) == computed


def test_run_draws_only_the_shots_it_takes(monkeypatch):
    # shots x (1 | n - 1 | n) draws for BV, linear and scrambled Simon: no
    # block reads a shot past the one that ends the run or past the budget
    sources = []

    class Recorded(RandomSource):
        def __init__(self, seed, stream=0):
            super().__init__(seed, stream)
            sources.append(self)

    monkeypatch.setattr(protocols, "RandomSource", Recorded)
    for fields, width in [
        (dict(problem="bv", n=10, a=0b1011001101, total_time=1.0, steps=100), 1),
        (dict(problem="simon", n=12, a=0b101101), 11),
        (dict(problem="simon", n=20, a=(1 << 19) | 5, total_time=1.0, steps=100), 19),
        (dict(problem="simon", n=9, a=0b110010, scramble_seed=3), 9),
    ]:
        for seed in range(12):
            for max_repeats in (None, 1, fields["n"] - 2, fields["n"] + 3):
                sources.clear()
                report = run(RunConfig(**fields, seed=seed, max_repeats=max_repeats))
                assert len(sources) == 1
                assert sources[0].draws == report.quantum_runs * width


def test_factored_runs_equal_the_scalar_reference_loop():
    # every factored report, without wall_time, equals shot-by-shot sampling
    # with the public one-shot samplers; the budgets include ones that cut a
    # block short
    picks = random.Random(12)
    schedules = ((0.5, 50), (1.0, 100), (5.77, 577), (50.0, 5000))
    configs = []
    for problem, scrambled in (("bv", False), ("simon", False), ("simon", True)):
        for total_time, steps in schedules:
            for budget in ("one", "two", "n-2", "default"):
                for _ in range(7):
                    n = picks.randint(2, 12 if scrambled else 60)
                    budgets = {"one": 1, "two": 2, "n-2": max(1, n - 2), "default": None}
                    seed = picks.choice([
                        picks.getrandbits(64) | 1 << 63, -picks.getrandbits(62), picks.getrandbits(63)
                    ])
                    configs.append(RunConfig(
                        problem, n, total_time=total_time, steps=steps, seed=seed,
                        max_repeats=budgets[budget],
                        scramble_seed=picks.getrandbits(31) if scrambled else None,
                    ))
    assert len(configs) >= 300
    for cfg in configs:
        report = asdict(run(cfg))
        del report["wall_time"]
        assert report == reference_run(cfg), cfg


def test_one_run_builds_one_shot_random_source(monkeypatch):
    # one source serves a run: a drawn mask comes from its stream 0, and the
    # shots re-key it.  Counting in __init__ catches a source built by any
    # module, per shot too
    built = []
    init = RandomSource.__init__

    def counting(self, seed, stream=0):
        built.append(stream)
        init(self, seed, stream)

    monkeypatch.setattr(RandomSource, "__init__", counting)
    for run, fields in [
        (run_bv, dict(problem="bv", n=10, a=0b1011001101, total_time=1.0, steps=100, seed=0)),
        (run_simon, dict(problem="simon", n=12, a=0b101101, seed=1)),
        (run_simon, dict(problem="simon", n=12, a=0b101101, seed=1, scramble_seed=2)),
        (run_simon, dict(problem="simon", n=3, a=0b101, path="full", total_time=5.0, steps=200)),
    ]:
        for a in (fields["a"], None):
            built.clear()
            report = run(RunConfig(**{**fields, "a": a}))
            assert report.quantum_runs >= 2
            assert built == [0]


@pytest.mark.parametrize("run,problem", [(run_bv, "bv"), (run_simon, "simon")])
def test_factored_runs_recover_mask_at_n60(run, problem):
    for a in (None, (1 << 59) | 0b1011):
        cfg = resolve_config(RunConfig(problem=problem, n=60, a=a, seed=6))
        report = run(cfg)
        assert report.success and report.recovered_a == cfg.a


def test_factored_caps():
    # a factored run's largest array, a Simon run's first block of n(n - 1)
    # uniforms, is bounded by check_capacity: n(n - 1) <= 2^20 up to n = 1024
    RunConfig(problem="simon", n=1024)
    RunConfig(problem="bv", n=1024)
    with pytest.raises(DomainError):
        RunConfig(problem="bv", n=1025)
    with pytest.raises(DomainError):
        RunConfig(problem="simon", n=1025)
    # scrambling materializes 2^(n-1) labels, so simon_build caps it at n <= 20
    RunConfig(problem="simon", n=20, scramble_seed=1)
    with pytest.raises(DomainError):
        RunConfig(problem="simon", n=25, scramble_seed=1)
    with pytest.raises(DomainError):
        RunConfig(problem="simon", n=21, scramble_seed=1)


@pytest.mark.parametrize("total_time", [math.inf, math.nan])
def test_total_time_must_be_finite(total_time):
    with pytest.raises(DomainError):
        RunConfig(problem="bv", n=3, total_time=total_time, steps=10)


def test_total_time_is_stored_as_a_float_and_a_bool_is_refused():
    for total_time in (50, np.float64(50.0), Fraction(100, 2)):
        cfg = RunConfig(problem="bv", n=3, total_time=total_time)
        assert type(cfg.total_time) is float and cfg.total_time == 50.0
        assert json.dumps(asdict(cfg)) == json.dumps(asdict(RunConfig("bv", 3)))
    for total_time in (True, False, 10**400):
        with pytest.raises(DomainError):
            RunConfig(problem="bv", n=3, total_time=total_time, steps=10)


@pytest.mark.parametrize("n", [61, 64, 65, 128, 256, 1024])
@pytest.mark.parametrize("problem", ["bv", "simon"])
def test_factored_runs_of_any_width_recover_the_mask(problem, n):
    given = random.Random(n).getrandbits(n) | 1
    for a in (None, given):
        cfg = resolve_config(RunConfig(problem, n, a=a, seed=n))
        assert 0 < cfg.a < 1 << n
        report = run(cfg)
        assert report.success and report.recovered_a == cfg.a
        if problem == "simon":
            assert n - 1 <= report.rows_collected < n + 40


def test_sweep_checks_only_the_per_value_configs():
    # neither base is a valid config on its own: n = 1 is too small for
    # Simon, and 100 T steps at T = 1e5 exceed MAX_STEPS
    [row] = sweep("n", [3], dict(problem="simon", n=1), trials=2)
    assert row.success_rate == 1.0
    [row] = sweep("steps", [100], dict(problem="bv", n=2, total_time=1e5), trials=1)
    assert row.trials == 1


def test_full_path_cap_is_twenty_qubits():
    # the matrix-free full path is capped on state size, 2^20 amplitudes
    RunConfig(problem="bv", n=19, path="full")
    RunConfig(problem="simon", n=10, path="full")
    with pytest.raises(DomainError):
        RunConfig(problem="bv", n=20, path="full")
    with pytest.raises(DomainError):
        RunConfig(problem="simon", n=11, path="full")


def test_steps_ceiling():
    RunConfig(problem="bv", n=4, steps=1 << 20)
    with pytest.raises(DomainError):
        RunConfig(problem="bv", n=4, steps=(1 << 20) + 1)


@pytest.mark.parametrize("n,scramble_seed,a,runs,fidelity", [
    (12, None, 218, 11, 0.9957656663381109),
    (12, 7, 218, 11, 0.9957656663381109),
    (13, None, 1865, 15, 0.9953816171275679),
    (13, 7, 1865, 12, 0.9953816171275679),
    (14, None, 7783, 17, 0.9949977160380146),
    (14, 7, 7783, 14, 0.9949977160380146),
], ids=["n12", "n12-scrambled", "n13", "n13-scrambled", "n14", "n14-scrambled"])
def test_seeded_simon_reports_unchanged(n, scramble_seed, a, runs, fidelity):
    # a and runs recorded when run_simon still built the oracle's lookup
    # table; fidelity re-recorded under schemas 7 (the scan's scalar tail)
    # and 10 (the product tree)
    report = run_simon(RunConfig(problem="simon", n=n, seed=100 + n, scramble_seed=scramble_seed))
    assert report.success and report.recovered_a == a
    assert report.quantum_runs == report.rows_collected == runs
    assert report.per_run_fidelity == fidelity


@pytest.mark.parametrize("fields,a,runs,fidelity", [
    (dict(n=24, total_time=0.5, steps=50, seed=324), 1381533, 121, 1.5116262790448898e-07),
    (dict(n=60, total_time=0.5, steps=50, seed=360), 178413162238573480, 328,
     3.1900114514443284e-18),
    (dict(n=24, total_time=1.0, steps=100, seed=324), 1381533, 43, 2.999735743613297e-07),
    (dict(n=60, total_time=1.0, steps=100, seed=360), 178413162238573480, 62,
     1.85054591219532e-17),
    (dict(n=12, total_time=0.5, steps=50, seed=312, scramble_seed=3), 3238, 86,
     0.0005470098714606626),
], ids=["T0.5-n24", "T0.5-n60", "T1-n24", "T1-n60", "T0.5-n12-scrambled"])
def test_seeded_low_q_simon_reports(fields, a, runs, fidelity):
    # recorded under schema 5 with one scalar uniform per row bit; at low q a
    # run draws hundreds of row-bit blocks, so these pin the draw order;
    # the fidelities re-recorded under schemas 7 and 10
    report = run_simon(RunConfig(problem="simon", max_repeats=20 * fields["n"], **fields))
    assert report.success and report.recovered_a == a
    assert report.quantum_runs == report.rows_collected == runs
    assert report.per_run_fidelity == fidelity


@pytest.mark.parametrize("fields,a,restarts,fidelity", [
    (dict(n=8, seed=108), 47, 0, 0.9996143176818343),
    (dict(n=16, seed=116), 37700, 2, 0.9996143176818343),
    (dict(n=60, seed=160), 14234013176458300, 1, 0.9996143176818343),
    (dict(n=4, a=0, seed=3), 0, 4, 0.9996143176818343),
    (dict(n=12, seed=7, total_time=5.0, steps=500), 670, 1, 0.8389771197853403),
    (dict(n=5, seed=105, total_time=5.0, steps=500, path="full"), 5, 0, 0.8389771197853415),
    (dict(n=10, seed=4, total_time=0.5, steps=50), 325, 101, 0.5051892560903584),
], ids=["n8", "n16", "n60", "a0", "T5", "full", "short-anneal"])
def test_seeded_bv_reports(fields, a, restarts, fidelity):
    # fidelity recorded under schema 4 (two fidelity formulas), the factored
    # ones re-recorded under schemas 7 and 10; restarts recorded under schema
    # 5, where a shot is one row-bit draw; short-anneal under schema 9, whose default
    # budget (2,801 shots) outlasts the 64 that bv-short-anneal below exhausts
    report = run_bv(RunConfig(problem="bv", **fields))
    assert report.success and report.recovered_a == a
    assert report.restarts == restarts and report.quantum_runs == restarts + 1
    assert report.per_run_fidelity == fidelity


@pytest.mark.parametrize("run,fields,runs,restarts,rows,fidelity", [
    (run_bv, dict(problem="bv", n=10, total_time=0.5, steps=50, seed=4, max_repeats=64),
     64, 64, 0, 0.5051892560903584),
    (run_bv, dict(problem="bv", n=4, a=9, path="full", total_time=5.0, steps=200, seed=1,
                  max_repeats=1), 1, 1, 0, 0.838982211240202),
    (run_simon, dict(problem="simon", n=8, seed=3, max_repeats=3), 3, 0, 3, 0.9973033455335059),
    (run_simon, dict(problem="simon", n=8, seed=3, max_repeats=3, scramble_seed=5),
     3, 0, 3, 0.9973033455335059),
    (run_simon, dict(problem="simon", n=4, seed=2, max_repeats=2, path="full", total_time=5.0,
                     steps=200), 2, 0, 2, 0.5905521541517191),
], ids=["bv-short-anneal", "bv-full-one-shot", "simon", "simon-scrambled", "simon-full"])
def test_seeded_budget_exhausted_reports(run, fields, runs, restarts, rows, fidelity):
    # recorded under schema 5 (factored fidelities under schemas 7 and 10): every shot
    # of the budget is spent and no mask is named
    report = run(RunConfig(**fields))
    assert not report.success and report.recovered_a is None
    assert report.quantum_runs == runs
    assert report.restarts == restarts and report.rows_collected == rows
    assert report.per_run_fidelity == fidelity
