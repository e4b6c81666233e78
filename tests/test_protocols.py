"""End-to-end protocol runs, classical baselines, and sweeps."""

import json
import math
import random
import sys
import threading
from collections import Counter
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

from adiabatic_sim import measurement, protocols
from adiabatic_sim.errors import DomainError
from adiabatic_sim.evolution import Schedule, evolve_full, evolve_two_level
from adiabatic_sim.gf2 import Gf2Matrix, recover_mask
from adiabatic_sim.hamiltonians import TwoLevelBlock, interpolated
from adiabatic_sim.measurement import RandomSource, dense_shot, rotate_output
from adiabatic_sim.oracles import BvMask, simon_build
from adiabatic_sim.protocols import (
    RunConfig,
    branch_pair,
    resolve_config,
    run,
    run_bv,
    run_simon,
    sweep,
)
from adiabatic_sim.qstate import plus_state
from helpers import classical_simon, fidelity, kind_pair, problem_phase, reference_run, simon_eval


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
    from adiabatic_sim.evolution import assemble

    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    phi0, phi1 = branch_pair(5.0, 500)
    oracle_seeded = simon_build(3, 5, scramble_seed=9)
    dense = fidelity(
        assemble(oracle_seeded, e0, e1),
        assemble(oracle_seeded, phi0, phi1),
    )
    report = run_simon(
        RunConfig(problem="simon", n=3, a=5, total_time=5.0, steps=500, seed=1,
                  scramble_seed=9)
    )
    assert report.per_run_fidelity == pytest.approx(dense, abs=1e-12)

    mask = BvMask(3, 5)
    dense_bv = fidelity(assemble(mask, e0, e1), assemble(mask, phi0, phi1))
    report_bv = run_bv(RunConfig(problem="bv", n=3, a=5, total_time=5.0, steps=500, seed=1))
    assert report_bv.per_run_fidelity == pytest.approx(dense_bv, abs=1e-12)


@pytest.mark.parametrize("problem,n,scramble_seed", [("bv", 3, None), ("bv", 4, None),
                                                     ("simon", 3, None), ("simon", 3, 9)])
def test_full_path_fidelity_is_the_overlap_with_the_ideal_target(problem, n, scramble_seed):
    # the full path reads |sum_w psi[w, f(w)]|^2 / 2^n off its final state; that
    # is its fidelity to the assembled ideal target 2^(-n/2) sum_w |w>|f(w)>
    from adiabatic_sim.evolution import assemble

    cfg = resolve_config(RunConfig(problem, n, total_time=2.0, steps=60, path="full", seed=4,
                                   scramble_seed=scramble_seed))
    states = []
    report = protocols._run_seeded(cfg, cfg.steps, cfg.max_repeats, RandomSource(cfg.seed),
                                   states.append)
    oracle = BvMask(n, cfg.a) if problem == "bv" else simon_build(n, cfg.a, scramble_seed)
    target = assemble(oracle, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert report.per_run_fidelity == pytest.approx(fidelity(target, states[0]), rel=1e-13)
    assert 0.05 < report.per_run_fidelity < 1.0


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
                   dict(problem="bv", n=3, total_time=None),
                   dict(problem="bv", n=3, scramble_seed=5)):  # BV has no labels to scramble
        with pytest.raises(DomainError):
            RunConfig(**fields)


def test_replace_checks_the_new_config():
    cfg = RunConfig(problem="bv", n=4, a=9)
    for fields in (dict(n=-1), dict(n=2), dict(steps=0), dict(total_time=math.nan),
                   dict(scramble_seed=5)):
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
    # at T = 0.001 the default budget would pass the cap: an explicit one resolves
    assert resolve_config(RunConfig(problem="bv", n=4, total_time=0.001, max_repeats=1)).steps == 1
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
    q = protocols._branch_law(50.0, 5000)[0]
    assert first.max_repeats == protocols._shot_budget(4, min(q, 1 - q)) == 99
    assert resolve_config(first) == first  # idempotent


def test_shot_budget_edges_and_tail():
    budget, cap = protocols._shot_budget, protocols.MAX_STEPS
    for stages in (1, 4, 59, 1023):
        assert budget(stages, 0.0) == budget(stages, math.nan) == budget(stages, 5e-324) == math.inf
        budgets = [budget(stages, s) for s in np.geomspace(1.0, 1e-12, 400)] + [budget(stages, 0.0)]
        assert budgets == sorted(budgets)  # never fewer shots at a lower success rate
        assert cap < budgets[-2] < math.inf
        # the exact binomial tail P(fewer than stages successes in B shots) <= 1e-9
        for s in (0.9, 0.5, 0.1, 0.0155, 1e-3):
            B = budget(stages, s)
            if B < cap:
                tail = sum(math.exp(math.lgamma(B + 1) - math.lgamma(j + 1) - math.lgamma(B - j + 1)
                                    + j * math.log(s) + (B - j) * math.log1p(-s))
                           for j in range(stages))
                assert tail <= protocols.BUDGET_FAILURE_PROB
    # the default budget at T = 50: both problems, both paths read the same q
    q = protocols._branch_law(50.0, 5000)[0]
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


def test_classical_simon_matches_the_distinct_query_loop():
    # the one-dict search against a loop that keeps the queried inputs in a
    # set of their own and skips a repeat before querying it: same result,
    # same queries, same draws
    def distinct_query_loop(oracle, rng):
        seen, queried = {}, set()
        while True:
            w = rng.randrange(1 << oracle.n)
            if w in queried:
                continue
            queried.add(w)
            out = simon_eval(oracle, w)
            if out in seen:
                return len(queried), seen[out] ^ w
            seen[out] = w

    picks = random.Random(30)
    for _ in range(300):
        n = picks.randint(2, 14)
        oracle = simon_build(n, picks.randrange(1, 1 << n),
                             scramble_seed=picks.choice([None, picks.getrandbits(31)]))
        seed = picks.getrandbits(63)
        ours, theirs = RandomSource(seed), RandomSource(seed)
        result = classical_simon(oracle, ours)
        assert (result.queries, result.a) == distinct_query_loop(oracle, theirs)
        assert ours.draws == theirs.draws


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
    phi_ref, _ = branch_pair(50.0, 1 << 16)
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


def test_on_final_state_receives_the_full_paths_anneal_once():
    # the full path hands its annealed state to the callback, once; the
    # factored path has no dense state and never calls it
    cfg = RunConfig("simon", 4, a=9, total_time=5.0, steps=200, path="full", seed=2,
                    max_repeats=20, scramble_seed=3)
    finals = []
    assert run_simon(cfg, finals.append).success
    oracle = simon_build(cfg.n, cfg.a, cfg.scramble_seed)
    want = evolve_full(interpolated(oracle), plus_state(cfg.n, cfg.n - 1),
                       Schedule(cfg.total_time, cfg.steps))
    assert len(finals) == 1 and np.array_equal(finals[0].amps, want.final_state.amps)
    called = []
    assert run_simon(replace(cfg, path="factored"), called.append).success
    assert called == []


def spy_on_shots(monkeypatch) -> list:
    """Record the arguments of every ``_run_seeded`` call, the run body every run and trial enters."""
    calls, run_seeded = [], protocols._run_seeded

    def spy(*args):
        calls.append(args)
        return run_seeded(*args)

    monkeypatch.setattr(protocols, "_run_seeded", spy)
    return calls


def test_sweep_validates_every_value_before_running(monkeypatch):
    calls = spy_on_shots(monkeypatch)
    with pytest.raises(DomainError):
        sweep("steps", [200000, 2000000], dict(problem="bv", n=4), trials=1)
    assert calls == []


@pytest.mark.parametrize("problem,n,total_time", [
    ("bv", 10, 0.005),      # q = 1.6e-6: 2.8e7 shots
    ("simon", 60, 0.04),    # 4 steps, q = 1e-4: 1.3e6 rows
    ("bv", 4, 1e-160),      # q subnormal: the budget overflows a float
    ("simon", 3, 1e-200),   # q = 0
])
def test_a_default_budget_past_the_cap_is_refused(problem, n, total_time):
    # the 1e-9 failure bound is kept or the config refused, never cut at the cap
    cfg = RunConfig(problem, n, total_time=total_time, seed=2)
    q = protocols._branch_law(total_time, protocols._steps_for(cfg))[0]
    s = q if problem == "bv" else min(q, 1 - q)
    need = protocols._shot_budget(1 if problem == "bv" else n - 1, s)
    assert need > protocols.MAX_STEPS
    for call in (resolve_config, run):
        with pytest.raises(DomainError) as info:
            call(cfg)
        message = str(info.value)
        assert "\n" not in message and f"q = {q:.3g}" in message
        assert f"{need} shots" in message and "max_repeats" in message
    # an explicit budget runs as given
    assert run(replace(cfg, max_repeats=3)).quantum_runs == 3


def test_a_nan_row_bit_probability_is_refused(monkeypatch):
    monkeypatch.setattr(protocols, "_branch_law", lambda *key: (math.nan, 1.0))
    for problem in ("bv", "simon"):
        with pytest.raises(DomainError, match="q = nan .* inf shots"):
            resolve_config(RunConfig(problem, 4))


def test_a_sweep_refuses_a_default_budget_when_its_value_resolves(monkeypatch):
    calls = spy_on_shots(monkeypatch)
    with pytest.raises(DomainError, match="max_repeats"):
        sweep("T", [1.0, 0.005, 2.0], dict(problem="bv", n=4, seed=1), trials=3)
    assert [args[0].total_time for args in calls] == [1.0] * 3


@pytest.mark.parametrize("axis,values,base,trials", [
    ("n", [3, 6], dict(problem="bv", total_time=2.0, seed=3), 3),
    ("n", [2, 5], dict(problem="simon", total_time=1.0, steps=100, max_repeats=3, seed=-4), 3),
    ("T", [0.5, 2.0], dict(problem="simon", n=5, seed=4, scramble_seed=7), 3),
    ("T", [1.0, 3.0], dict(problem="bv", n=3, a=5, path="full", steps=60, max_repeats=2, seed=6), 2),
    ("steps", [20, 200], dict(problem="simon", n=4, total_time=2.0, max_repeats=4, seed=5), 3),
    ("steps", [30, 90], dict(problem="simon", n=3, path="full", total_time=1.5, seed=8), 2),
    ("steps", [50], dict(problem="bv", n=8, total_time=0.5), 4),
])
def test_each_sweep_trial_equals_a_run(monkeypatch, axis, values, base, trials):
    # the golden rows aggregate trials, which could hide offsetting differences:
    # each trial's report, without wall_time, is that of run() on its seed
    reports, run_seeded = [], protocols._run_seeded

    def recording(*args):
        report = run_seeded(*args)
        reports.append(asdict(report))
        return report

    monkeypatch.setattr(protocols, "_run_seeded", recording)
    sweep(axis, values, base, trials)
    monkeypatch.undo()
    field = {"n": "n", "T": "total_time", "steps": "steps"}[axis]
    want = []
    for i, value in enumerate(values):
        cfg_value = RunConfig(**{**base, field: value})
        for t in range(trials):
            want.append(asdict(run(replace(cfg_value, seed=protocols._trial_seed(cfg_value.seed, i, t)))))
    for report in reports + want:
        del report["wall_time"]
    assert reports == want


def test_trial_seeds_are_pinned_and_distinct():
    # at master 0 and value index 0, trial t gets SplitMix64's t-th output
    # from state 0, the published 0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, ...
    trial_seed = protocols._trial_seed
    assert [trial_seed(0, 0, t) for t in (1, 2, 3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert trial_seed(-7, 0, 0) == 15824578273388328691
    assert trial_seed(-7, 3, 11) == 1749584916886561099
    assert trial_seed(2**63, 1, 2) == 9904550274404313384
    assert trial_seed(-1, 2, 5) == trial_seed(2**64 - 1, 2, 5) == 3409793772800189454
    # (value_index, trial) pairs below 2^32 map to distinct seeds, at the
    # 2^32 edge too, where a pair must not spill into its neighbour
    pairs = [(i, t) for i in range(48) for t in range(48)]
    pairs += [(0, 2**32 - 1), (1, 2**32 - 1), (2**32 - 1, 0), (2**32 - 1, 2**32 - 1)]
    for master in (0, -3, 2**63 + 1):
        assert len({trial_seed(master, i, t) for i, t in pairs}) == len(pairs)


def test_runs_and_sweeps_build_no_config_per_run_and_one_source(monkeypatch):
    # a run resolves without a RunConfig; a sweep builds one per value and
    # uses one RandomSource, re-keyed per trial.  Every source in use, new or
    # taken from the free list, is keyed by reseed (a new one in its
    # constructor), so the sources a call uses are those reseed sees
    built, keyed = Counter(), []
    post_init, reseed = RunConfig.__post_init__, RandomSource.reseed

    def counting_post_init(self):
        built["configs"] += 1
        post_init(self)

    def recording_reseed(self, seed, stream=0):
        keyed.append(self)
        reseed(self, seed, stream)

    monkeypatch.setattr(RunConfig, "__post_init__", counting_post_init)
    monkeypatch.setattr(RandomSource, "reseed", recording_reseed)
    cfgs = [RunConfig("bv", 6, total_time=2.0, seed=1), RunConfig("simon", 5, a=3, seed=2),
            RunConfig("simon", 6, scramble_seed=4, max_repeats=7), RunConfig("bv", 3, path="full", steps=40)]
    for cfg in cfgs:
        built.clear()
        keyed.clear()
        run(cfg)
        assert built == {} and len(keyed) == 1, cfg
    for axis, values, base in (("T", [1.0, 2.0, 3.0], dict(problem="bv", n=4)),
                               ("n", [3, 4], dict(problem="simon", seed=9, scramble_seed=1))):
        for trials in (1, 3, 8):
            built.clear()
            keyed.clear()
            sweep(axis, values, base, trials)
            assert built == {"configs": len(values)}, (axis, trials)
            # one key when taken, then one per trial, all on one source
            assert len(keyed) == 1 + len(values) * trials, (axis, trials)
            assert len(set(map(id, keyed))) == 1, (axis, trials)


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
        _, phi1 = kind_pair(kind, total_time, steps)
        evolved = evolve_two_level(TwoLevelBlock(1), Schedule(total_time, steps))
        assert np.array_equal(phi1, evolved * problem_phase(kind, total_time))


def test_bv_and_simon_runs_share_one_branch_evolution(monkeypatch):
    # the memoized law is keyed by (T, steps) alone: a factored BV run and then
    # a Simon run, linear or scrambled, on one schedule integrate the branch once
    calls = []

    def counting(block, sched):
        calls.append((block, sched))
        return evolve_two_level(block, sched)

    monkeypatch.setattr(protocols, "evolve_two_level", counting)
    protocols._branch_law.cache_clear()
    for fields in (dict(problem="bv", n=6), dict(problem="simon", n=6),
                   dict(problem="simon", n=6, scramble_seed=4)):
        assert run(RunConfig(**fields, total_time=12.5, seed=3)).success
    assert calls == [(TwoLevelBlock(0), Schedule(12.5, 1250))]


def test_cached_branch_overlap_is_real():
    # phi_1 = sigma_x phi_0 makes <phi_0|phi_1> real, as a scrambled row's
    # descent needs, so no run checks it; 100 schedules, T from 0.01 to 1e4
    for kind in ("bv", "simon"):
        for total_time in np.geomspace(0.01, 1e4, 10):
            for steps in (1, 7, 100, 5000, 40000):
                phi0, phi1 = kind_pair(kind, total_time, steps)
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
    protocols._branch_law.cache_clear()
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
    # block reads a shot past the one that ends the run or past the budget.
    # The run's source, new or taken from the free list, is the one reseed keys
    sources = []
    reseed = RandomSource.reseed

    def recording_reseed(self, seed, stream=0):
        sources.append(self)
        reseed(self, seed, stream)

    monkeypatch.setattr(RandomSource, "reseed", recording_reseed)
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
    # one source serves a run: a drawn mask comes from its stream 0, and one
    # re-key to stream 1 serves every shot.  A source in use, new (its
    # constructor reseeds) or taken from the free list, is keyed by reseed,
    # so counting reseeds catches a source built or re-keyed by any module,
    # per shot too
    reseeds, restarts = [], []
    reseed, restart = RandomSource.reseed, RandomSource.restart

    def counting_reseed(self, seed, stream=0):
        reseeds.append((self, seed, stream))
        reseed(self, seed, stream)

    def counting_restart(self, stream):
        restarts.append((self, stream))
        restart(self, stream)

    monkeypatch.setattr(RandomSource, "reseed", counting_reseed)
    monkeypatch.setattr(RandomSource, "restart", counting_restart)
    for run, fields in [
        (run_bv, dict(problem="bv", n=10, a=0b1011001101, total_time=1.0, steps=100, seed=0)),
        (run_simon, dict(problem="simon", n=12, a=0b101101, seed=1)),
        (run_simon, dict(problem="simon", n=12, a=0b101101, seed=1, scramble_seed=2)),
        (run_simon, dict(problem="simon", n=3, a=0b101, path="full", total_time=5.0, steps=200)),
    ]:
        for a in (fields["a"], None):
            reseeds.clear()
            restarts.clear()
            cfg = RunConfig(**{**fields, "a": a})
            report = run(cfg)
            assert report.quantum_runs >= 2
            [(source, seed, stream)] = reseeds
            assert (seed, stream) == (cfg.seed, 0)
            assert restarts == [(source, 0), (source, 1)]  # the reseed's, then the shots'


def test_a_factored_bv_shot_is_one_scalar_uniform(monkeypatch):
    # a BV shot reads one uniform() and compares it with q: no block fill,
    # no _read_factored.  Short anneals (q = 0.0155) make runs of many shots
    calls = Counter()
    uniform = RandomSource.uniform

    def counting_uniform(self):
        calls["uniform"] += 1
        return uniform(self)

    def refused(*args):
        raise AssertionError("a BV shot read a block")

    monkeypatch.setattr(RandomSource, "uniform", counting_uniform)
    monkeypatch.setattr(RandomSource, "fill", refused)
    monkeypatch.setattr(measurement, "_read_factored", refused)
    monkeypatch.setattr(protocols, "_read_factored", refused)
    shots = 0
    for seed in range(20):
        for a, max_repeats in ((None, None), (0b101100110011, 1), (None, 5)):
            calls.clear()
            report = run_bv(RunConfig("bv", 12, a=a, total_time=0.5, steps=50, seed=seed,
                                      max_repeats=max_repeats))
            assert calls == {"uniform": report.quantum_runs}
            shots += report.quantum_runs
    assert shots >= 500


def strip_wall_time(report):
    return replace(report, wall_time=0.0)


def test_a_run_nested_in_a_full_path_callback_takes_its_own_source():
    # the nested run pops a second source, so neither run reads the other's
    # draws: both reports equal the same runs made one after the other.  The
    # outer run draws its mask before the callback and its shots after
    outer = RunConfig("simon", 3, total_time=2.0, steps=40, path="full", seed=5)
    inners = [RunConfig("bv", 9, total_time=0.5, steps=50, seed=11),
              RunConfig("simon", 7, total_time=1.0, steps=100, seed=12),
              RunConfig("simon", 2, total_time=2.0, steps=40, path="full", seed=13)]
    for inner in inners:
        nested = []
        report = run_simon(outer, lambda state: nested.append(run(inner)))
        assert report.quantum_runs >= 2 and run(inner).quantum_runs >= 2
        assert [strip_wall_time(report), strip_wall_time(nested[0])] == [
            strip_wall_time(run(outer)), strip_wall_time(run(inner))], inner


def test_a_run_that_raises_returns_its_source_and_the_next_run_is_unchanged(monkeypatch):
    free = []
    monkeypatch.setattr(protocols, "_FREE_SOURCES", free)
    cfg = RunConfig("simon", 3, total_time=2.0, steps=40, path="full", seed=3)

    def fail(state):
        raise RuntimeError("callback failed")

    later = [RunConfig("bv", 9, total_time=0.5, steps=50, seed=4), RunConfig("simon", 7, seed=8),
             RunConfig("simon", 6, total_time=1.0, steps=100, seed=-9, scramble_seed=2)]
    for after in later:
        with pytest.raises(RuntimeError):
            run_simon(cfg, fail)
        assert len(free) == 1
        report = asdict(run(after))
        del report["wall_time"]
        assert report == reference_run(after), after
        assert len(free) == 1


def test_threads_running_interleaved_configs_reproduce_a_sequential_pass(monkeypatch):
    # two threads take configs in turn; each run pops its own source, so the
    # reports equal a sequential pass, and the free list ends with no more
    # sources than the most runs alive at once
    picks = random.Random(31)
    configs = []
    for _ in range(200):
        problem = picks.choice(["bv", "simon"])
        scramble = problem == "simon" and picks.random() < 0.25
        configs.append(RunConfig(problem, picks.randint(2, 10 if scramble else 40),
                                 total_time=picks.choice([0.5, 1.0, 5.0]), seed=picks.getrandbits(63),
                                 scramble_seed=picks.getrandbits(31) if scramble else None))
    sequential = [strip_wall_time(run(cfg)) for cfg in configs]  # warms the branch cache too
    free = []
    monkeypatch.setattr(protocols, "_FREE_SOURCES", free)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over within runs
    threaded, alive, peak = [None] * len(configs), [0], [0]
    lock, start = threading.Lock(), threading.Barrier(2)

    def worker(first):
        start.wait(timeout=60)
        for i in range(first, len(configs), 2):
            with lock:
                alive[0] += 1
                peak[0] = max(peak[0], alive[0])
            threaded[i] = strip_wall_time(run(configs[i]))
            with lock:
                alive[0] -= 1

    try:
        threads = [threading.Thread(target=worker, args=(first,)) for first in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert threaded == sequential
    assert 1 <= len(free) <= peak[0] <= 2


def test_the_free_list_holds_no_more_sources_than_runs_alive_at_once(monkeypatch):
    free, built = [], []
    init = RandomSource.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(protocols, "_FREE_SOURCES", free)
    monkeypatch.setattr(RandomSource, "__init__", counting_init)
    cfgs = [RunConfig("bv", 6, seed=1), RunConfig("simon", 5, seed=2),
            RunConfig("simon", 6, scramble_seed=4), RunConfig("bv", 3, path="full", steps=40)]
    for cfg in cfgs:
        run(cfg)
        resolve_config(cfg)
    sweep("T", [1.0, 2.0], dict(problem="bv", n=4), 3)
    assert len(built) == 1 and free == built  # one at a time: one source, built once
    # three runs alive at once, each nested in the last one's callback
    outer = RunConfig("simon", 3, total_time=2.0, steps=40, path="full", seed=5)
    middle = replace(outer, n=2, seed=6)
    run_simon(outer, lambda state: run_simon(middle, lambda state: run(cfgs[0])))
    assert len(built) == len(free) == 3
    for cfg in cfgs:
        run(cfg)
    assert len(built) == len(free) == 3


@pytest.mark.parametrize("problem", ["bv", "simon"])
def test_full_path_shots_do_not_depend_on_the_block_size(problem):
    # a full-path run reads its shots in blocks that end where the run can;
    # its report and draws equal those of the public dense shot called once
    # per shot, in order, from stream 1 of the seed, on the run's state
    # rotated once
    for seed in range(6):
        for max_repeats in (1, 2, 5, None):
            cfg = resolve_config(RunConfig(problem, 4, total_time=2.0, steps=60, path="full",
                                           seed=seed, max_repeats=max_repeats))
            states, rng = [], RandomSource(cfg.seed)
            report = protocols._run_seeded(cfg, cfg.steps, cfg.max_repeats, rng, states.append)
            reference, system = RandomSource(cfg.seed, 1), Gf2Matrix(cfg.n)
            rotated, marginal = rotate_output(states[0])
            found, shots = None, 0
            while found is None and shots < cfg.max_repeats:
                outcome, shots = dense_shot(rotated, marginal, reference), shots + 1
                if problem == "bv":
                    found = outcome
                else:
                    system.add_row(outcome or 0)
                    found = recover_mask(system)
            assert (report.quantum_runs, report.recovered_a) == (shots, found), cfg
            assert rng.draws == reference.draws, cfg


@pytest.mark.parametrize("path", ["factored", "full"])
def test_a_drawn_mask_and_its_echo_give_the_same_report(path):
    # a run with a = None draws its mask on stream 0; the config that
    # resolve_config echoes names that mask and draws nothing, and must read
    # the same shots.  Short anneals make runs of several shots whose count
    # depends on the draws
    cases = [("bv", 12, None), ("simon", 10, None), ("simon", 8, 5)]
    if path == "full":
        cases = [("bv", 3, None), ("simon", 3, None)]
    for problem, n, scramble_seed in cases:
        for seed in range(40 if path == "factored" else 10):
            cfg = RunConfig(problem, n, total_time=1.0, steps=100 if path == "factored" else 40,
                            path=path, seed=seed - 20, scramble_seed=scramble_seed)
            drawn, echoed = asdict(run(cfg)), asdict(run(resolve_config(cfg)))
            del drawn["wall_time"], echoed["wall_time"]
            assert drawn == echoed, cfg


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
    (12, None, 218, 11, 0.9957656663381282),
    (12, 7, 218, 12, 0.9957656663381282),
    (13, None, 1865, 14, 0.9953816171275867),
    (13, 7, 1865, 13, 0.9953816171275867),
    (14, None, 7783, 15, 0.9949977160380347),
    (14, 7, 7783, 16, 0.9949977160380347),
], ids=["n12", "n12-scrambled", "n13", "n13-scrambled", "n14", "n14-scrambled"])
def test_seeded_simon_reports_unchanged(n, scramble_seed, a, runs, fidelity):
    # a recorded when run_simon still built the oracle's lookup table; runs
    # re-recorded under schema 11 (every shot on stream 1); fidelity under
    # schemas 7 (the scan's scalar tail), 10 (the product tree), 12 (the
    # mirrored half ramp) and 13 (phi_0[0] read off the BV branch, without
    # Simon's phase)
    report = run_simon(RunConfig(problem="simon", n=n, seed=100 + n, scramble_seed=scramble_seed))
    assert report.success and report.recovered_a == a
    assert report.quantum_runs == report.rows_collected == runs
    assert report.per_run_fidelity == fidelity


@pytest.mark.parametrize("fields,a,runs,fidelity", [
    (dict(n=24, total_time=0.5, steps=50, seed=324), 1381533, 340, 1.5116262790449088e-07),
    (dict(n=60, total_time=0.5, steps=50, seed=360), 178413162238573480, 212,
     3.1900114514444297e-18),
    (dict(n=24, total_time=1.0, steps=100, seed=324), 1381533, 50, 2.999735743613278e-07),
    (dict(n=60, total_time=1.0, steps=100, seed=360), 178413162238573480, 62,
     1.850545912195292e-17),
    (dict(n=12, total_time=0.5, steps=50, seed=312, scramble_seed=3), 3238, 114,
     0.0005470098714606661),
], ids=["T0.5-n24", "T0.5-n60", "T1-n24", "T1-n60", "T0.5-n12-scrambled"])
def test_seeded_low_q_simon_reports(fields, a, runs, fidelity):
    # recorded under schema 5 with one scalar uniform per row bit; at low q a
    # run draws hundreds of row-bit blocks, so these pin the draw order; runs
    # re-recorded under schema 11 (every shot on stream 1), the fidelities
    # under schemas 7, 10, 12 and 13
    report = run_simon(RunConfig(problem="simon", max_repeats=20 * fields["n"], **fields))
    assert report.success and report.recovered_a == a
    assert report.quantum_runs == report.rows_collected == runs
    assert report.per_run_fidelity == fidelity


@pytest.mark.parametrize("fields,a,restarts,fidelity", [
    (dict(n=8, seed=108), 47, 0, 0.9996143176818358),
    (dict(n=16, seed=116), 37700, 1, 0.9996143176818358),
    (dict(n=60, seed=160), 14234013176458300, 1, 0.9996143176818358),
    (dict(n=4, a=0, seed=3), 0, 3, 0.9996143176818358),
    (dict(n=12, seed=7, total_time=5.0, steps=500), 670, 1, 0.8389771197853413),
    (dict(n=5, seed=105, total_time=5.0, steps=500, path="full"), 5, 0, 0.8389771197853435),
    (dict(n=10, seed=4, total_time=0.5, steps=50), 325, 18, 0.5051892560903587),
], ids=["n8", "n16", "n60", "a0", "T5", "full", "short-anneal"])
def test_seeded_bv_reports(fields, a, restarts, fidelity):
    # fidelity recorded under schema 4 (two fidelity formulas), the factored
    # ones re-recorded under schemas 7, 10 and 12, the full one under schema 14
    # (BV's Hamming diagonal); restarts recorded under
    # schema 5, where a shot is one row-bit draw, and re-recorded under schema
    # 11, where every shot is on stream 1; short-anneal's default budget (2,801
    # shots) outlasts the 16 that bv-short-anneal below exhausts
    report = run_bv(RunConfig(problem="bv", **fields))
    assert report.success and report.recovered_a == a
    assert report.restarts == restarts and report.quantum_runs == restarts + 1
    assert report.per_run_fidelity == fidelity


@pytest.mark.parametrize("run,fields,runs,restarts,rows,fidelity", [
    (run_bv, dict(problem="bv", n=10, total_time=0.5, steps=50, seed=4, max_repeats=16),
     16, 16, 0, 0.5051892560903587),
    (run_bv, dict(problem="bv", n=4, a=9, path="full", total_time=5.0, steps=200, seed=1,
                  max_repeats=1), 1, 1, 0, 0.8389822112402034),
    (run_simon, dict(problem="simon", n=8, seed=3, max_repeats=3), 3, 0, 3, 0.9973033455335166),
    (run_simon, dict(problem="simon", n=8, seed=3, max_repeats=3, scramble_seed=5),
     3, 0, 3, 0.9973033455335166),
    (run_simon, dict(problem="simon", n=4, seed=2, max_repeats=2, path="full", total_time=5.0,
                     steps=200), 2, 0, 2, 0.5905521541517191),
], ids=["bv-short-anneal", "bv-full-one-shot", "simon", "simon-scrambled", "simon-full"])
def test_seeded_budget_exhausted_reports(run, fields, runs, restarts, rows, fidelity):
    # recorded under schema 5 (factored fidelities under schemas 7, 10 and 12,
    # bv-full-one-shot's under schema 14, BV's Hamming diagonal;
    # under schema 11 bv-short-anneal's seed finds the mask at shot 19, so its
    # budget went from 64 to 16): every shot of the budget is spent and no mask
    # is named
    report = run(RunConfig(**fields))
    assert not report.success and report.recovered_a is None
    assert report.quantum_runs == runs
    assert report.restarts == restarts and report.rows_collected == rows
    assert report.per_run_fidelity == fidelity
