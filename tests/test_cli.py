"""CLI contract: flags, exit codes, payload formats, reproducibility."""

import csv
import io
import json
import math
from dataclasses import asdict, astuple, fields

import pytest

from adiabatic_sim import cli, protocols
from adiabatic_sim.cli import build_parser, main
from adiabatic_sim.hamiltonians import gap_table, interpolated
from adiabatic_sim.oracles import simon_build
from adiabatic_sim.protocols import RunConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bv_happy_path(capsys):
    code, out, _ = run_cli(
        capsys, "bv", "--n", "8", "--a", "0xB3", "--time", "50",
        "--steps", "5000", "--seed", "1",
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == "15"
    assert record["results"]["recovered_a"] == 0xB3
    assert record["config"]["a"] == 0xB3
    assert record["provenance"]["seed"] == 1


def test_bv_mask_drawn_from_seed_and_echoed(capsys):
    code, out, _ = run_cli(capsys, "bv", "--n", "8", "--seed", "11")
    assert code == 0
    record = json.loads(out)
    assert record["config"]["a"] is not None
    assert 0 <= record["config"]["a"] < 256
    # drawing is deterministic: same seed, same mask
    _, out2, _ = run_cli(capsys, "bv", "--n", "8", "--seed", "11")
    assert json.loads(out2)["config"]["a"] == record["config"]["a"]


def test_bv_dense_cap_usage_error(capsys):
    code, out, err = run_cli(capsys, "bv", "--n", "40", "--path", "full")
    assert code == 1
    assert out == ""
    assert "usage error" in err


def test_bv_binary_mask_notation(capsys):
    code, out, _ = run_cli(capsys, "bv", "--n", "4", "--a", "0b1011", "--seed", "0")
    assert code == 0
    assert json.loads(out)["config"]["a"] == 11


def test_bv_protocol_failure_exit_code(capsys):
    # find a seed whose first readout restarts; with max-repeats 1 that fails
    from adiabatic_sim.protocols import RunConfig, run_bv

    failing_seed = next(
        seed for seed in range(50)
        if not run_bv(RunConfig(problem="bv", n=4, a=9, seed=seed, max_repeats=1)).success
    )
    code, out, _ = run_cli(
        capsys, "bv", "--n", "4", "--a", "9", "--seed", str(failing_seed),
        "--max-repeats", "1",
    )
    assert code == 2
    record = json.loads(out)
    assert record["results"]["success"] is False
    assert record["results"]["recovered_a"] is None


def test_simon_happy_path(capsys):
    code, out, _ = run_cli(
        capsys, "simon", "--n", "6", "--a", "0b101001", "--time", "50", "--seed", "3",
    )
    assert code == 0
    record = json.loads(out)
    assert record["results"]["recovered_a"] == 0b101001
    assert record["results"]["rows_collected"] >= 5


def test_simon_zero_mask_usage_error(capsys):
    code, _, err = run_cli(capsys, "simon", "--n", "6", "--a", "0")
    assert code == 1
    assert "usage error" in err


def test_simon_compare_factored(capsys):
    code, out, _ = run_cli(
        capsys, "simon", "--n", "3", "--a", "5", "--path", "full",
        "--compare-factored", "--seed", "2",
    )
    assert code == 0
    record = json.loads(out)
    assert record["results"]["max_factored_deviation"] <= 1e-8


def test_simon_compare_factored_evolves_once(capsys, monkeypatch):
    from adiabatic_sim import cli, evolution, protocols

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return evolve_full(*args, **kwargs)

    evolve_full = evolution.evolve_full
    for module in (evolution, protocols, cli):
        monkeypatch.setattr(module, "evolve_full", counted, raising=False)
    code, out, _ = run_cli(
        capsys, "simon", "--n", "4", "--a", "9", "--path", "full", "--time", "5",
        "--steps", "200", "--compare-factored", "--seed", "2",
    )
    assert code == 0 and len(calls) == 1
    # a separate evolve_full on the same config gives this value; re-recorded
    # under schemas 7, 10 and 12, where the factored branch moved in its last bits
    assert json.loads(out)["results"]["max_factored_deviation"] == 1.5823112613210482e-15


def test_simon_compare_factored_requires_full_path(capsys):
    code, _, err = run_cli(capsys, "simon", "--n", "3", "--compare-factored")
    assert code == 1
    assert "usage error" in err


def test_sweep_csv_contract(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "T", "--values", "1,5,50", "--problem", "bv",
        "--n", "4", "--trials", "10", "--seed", "5",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["axis_value"] for r in rows] == ["1.0", "5.0", "50.0"]
    assert list(rows[0]) == [
        "axis_value", "trials", "success_rate", "mean_fidelity",
        "mean_rows", "mean_restarts", "wall_ms",
    ]
    fidelities = [float(r["mean_fidelity"]) for r in rows]
    assert fidelities[0] < fidelities[1] < fidelities[2]


def test_sweep_csv_bytes_are_each_row_fields_in_order(capsys, monkeypatch):
    # the CSV holds each returned row's fields in declaration order, the bytes
    # astuple formatting gives, and the seeded columns keep their values
    returned = []
    monkeypatch.setattr(cli, "sweep", lambda *args: returned.extend(protocols.sweep(*args)) or returned)
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "T", "--values", "0.5,2,50", "--problem", "simon",
        "--n", "4", "--trials", "6", "--seed", "9", "--scramble-seed", "3",
    )
    assert code == 0
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow([f.name for f in fields(protocols.SweepRow)])
    writer.writerows(map(astuple, returned))
    assert out == expected.getvalue()
    assert [line.rsplit(",", 1)[0] for line in out.splitlines()[1:]] == [
        "0.5,6,1.0,0.1289324743741795,69.0,0.0",
        "2.0,6,1.0,0.19272163424472646,9.5,0.0",
        "50.0,6,1.0,0.9988433992406888,4.0,0.0",
    ]


def test_sweep_T_gives_each_value_its_default_steps(capsys):
    # without --steps, each swept T runs 100 T steps, as bv --time T would
    argv = ("sweep", "--axis", "T", "--problem", "bv", "--n", "2", "--trials", "3", "--seed", "1")

    def rows(*extra):
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        return [{k: v for k, v in row.items() if k != "wall_ms"}
                for row in csv.DictReader(io.StringIO(out))]

    # a trial's seed depends on its value's index, so each pinned row comes
    # from a sweep over the same values
    swept = rows("--values", "1,5")
    assert swept == [rows("--values", "1,5", "--steps", "100")[0],
                     rows("--values", "1,5", "--steps", "500")[1]]
    assert swept[0] != rows("--values", "1,5", "--steps", "5000")[0]


def test_every_run_config_field_has_a_flag_on_each_run_subcommand():
    # bv alone has no scrambled oracle; problem is the subcommand or --problem
    names = {f.name for f in fields(RunConfig)} - {"problem"}
    parser = build_parser()
    for argv in (("bv", "--n", "3"), ("simon", "--n", "3"),
                 ("sweep", "--axis", "n", "--values", "3", "--problem", "bv")):
        want = names - {"scramble_seed"} if argv[0] == "bv" else names
        assert want <= set(vars(parser.parse_args(argv))), argv[0]


def test_sweep_takes_a_shot_budget(capsys):
    # at T = 0.005 (one step, q = 1.6e-6) the default BV budget is refused,
    # so a sweep that reaches it needs --max-repeats
    argv = ("sweep", "--axis", "T", "--values", "0.005,1", "--problem", "bv", "--n", "10",
            "--seed", "3")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and "max_repeats" in err
    code, out, _ = run_cli(capsys, *argv, "--max-repeats", "100")
    assert code == 0
    rows = [{k: v for k, v in row.items() if k != "wall_ms"}
            for row in csv.DictReader(io.StringIO(out))]
    base = dict(problem="bv", n=10, seed=3, max_repeats=100)
    want = [{k: str(v) for k, v in asdict(row).items() if k != "wall_ms"}
            for row in protocols.sweep("T", [0.005, 1.0], base, trials=100)]
    assert rows == want


def test_sweep_T_refuses_a_value_whose_default_steps_exceed_the_cap(capsys, monkeypatch):
    # 100 T = 10^7 steps at T = 1e5: refused before the first value runs
    calls, run_seeded = [], protocols._run_seeded

    def spy(*args):
        calls.append(args)
        return run_seeded(*args)

    monkeypatch.setattr(protocols, "_run_seeded", spy)
    code, out, err = run_cli(
        capsys, "sweep", "--axis", "T", "--values", "1,1e5", "--problem", "bv",
        "--n", "2", "--trials", "3", "--seed", "1",
    )
    assert code == 1 and out == "" and calls == []
    assert err.startswith("usage error") and err.count("\n") == 1


def test_bv_refuses_a_default_budget_past_the_cap(capsys):
    # at T = 1e-9, q = 6.25e-20: the 1e-9 failure bound needs 6.9e20 shots,
    # which the cap of 2^20 used to cut to a run that failed with exit 2
    code, out, err = run_cli(capsys, "bv", "--n", "4", "--time", "1e-9", "--seed", "1")
    assert code == 1 and out == ""
    assert err.startswith("usage error") and err.count("\n") == 1
    assert "q = 6.25e-20" in err and "max_repeats" in err
    # an explicit budget runs as given, and here fails
    code, out, _ = run_cli(capsys, "bv", "--n", "4", "--time", "1e-9", "--seed", "1",
                           "--max-repeats", "5")
    assert code == 2 and json.loads(out)["results"]["quantum_runs"] == 5


@pytest.mark.parametrize("argv", [
    # 100 T = 10^7 default steps at T = 1e5, but the one swept config has 100
    ("--axis", "steps", "--values", "100", "--problem", "bv", "--time", "1e5"),
    # --n 1 is no Simon size, but the one swept config has n = 3
    ("--axis", "n", "--values", "3", "--problem", "simon", "--n", "1"),
])
def test_sweep_checks_only_the_swept_configs(capsys, argv):
    code, out, err = run_cli(capsys, "sweep", *argv, "--trials", "1", "--seed", "2")
    assert code == 0 and err == ""
    [row] = list(csv.DictReader(io.StringIO(out)))
    assert row["trials"] == "1"


def test_sweep_over_n_reaches_1024(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "n", "--values", "128,1024", "--problem", "simon",
        "--trials", "2", "--seed", "3",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["axis_value"] for r in rows] == ["128.0", "1024.0"]
    assert all(r["success_rate"] == "1.0" for r in rows)
    assert [float(r["mean_rows"]) >= n - 1 for r, n in zip(rows, (128, 1024))] == [True, True]


@pytest.mark.parametrize("problem", ["bv", "simon"])
def test_factored_run_at_n_1024_echoes_its_mask(capsys, problem):
    code, out, _ = run_cli(capsys, problem, "--n", "1024", "--seed", "9")
    assert code == 0
    record = json.loads(out)
    assert record["results"]["recovered_a"] == record["config"]["a"] < 1 << 1024
    assert record["config"]["total_time"] == 50.0


def test_every_config_field_is_a_simon_flag():
    from dataclasses import fields

    from adiabatic_sim.protocols import RunConfig

    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    dests = {action.dest for action in subparsers.choices["simon"]._actions}
    assert {f.name for f in fields(RunConfig)} - {"problem"} <= dests


def test_sweep_simon_rows_grow_linearly(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "n", "--values", "2,4,6", "--problem", "simon",
        "--trials", "30", "--seed", "4",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    means = [float(r["mean_rows"]) for r in rows]
    assert means[0] < means[1] < means[2]
    slope = (means[2] - means[0]) / 4.0
    assert 0.6 <= slope <= 1.4


def test_sweep_empty_values_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--axis", "T", "--values", "", "--problem", "bv",
    )
    assert code == 1
    assert "usage error" in err


def test_gap_bv_table(capsys):
    code, out, err = run_cli(capsys, "gap", "--problem", "bv", "--n", "2", "--grid", "201")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 201
    s_min, gap_min = min(
        ((float(r["s"]), float(r["gap"])) for r in rows), key=lambda p: p[1]
    )
    assert gap_min == pytest.approx(1 / math.sqrt(2), abs=1e-3)
    assert s_min == pytest.approx(0.5, abs=5e-3)
    assert "min gap" in err  # diagnostics stay on stderr


def test_gap_draws_its_mask_without_an_anneal(capsys, monkeypatch):
    # gap draws the mask a run would (2 for this seed) and reads no shot
    # budget, so it integrates no branch pair
    def no_evolution(*args):
        raise AssertionError("gap evolved a branch")

    protocols._branch_law.cache_clear()
    monkeypatch.setattr(protocols, "evolve_two_level", no_evolution)
    code, out, _ = run_cli(capsys, "gap", "--problem", "simon", "--n", "3", "--seed", "5")
    assert code == 0
    assert protocols.resolve_config(protocols.RunConfig("simon", 3, seed=5, max_repeats=1)).a == 2
    table = gap_table(interpolated(simon_build(3, 2)), 201)
    assert out.splitlines() == ["s,gap"] + [f"{s:.10g},{value:.15g}" for s, value in table]


@pytest.mark.parametrize("problem,n", [("simon", 7), ("bv", 12)])
def test_gap_scans_thirteen_qubits(capsys, problem, n):
    # 13 total qubits each: only the memory cap bounds the scan
    code, out, err = run_cli(capsys, "gap", "--problem", problem, "--n", str(n), "--grid", "21")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    s_min, gap_min = min(((float(r["s"]), float(r["gap"])) for r in rows), key=lambda p: p[1])
    assert s_min == 0.5
    assert abs(gap_min - 1 / math.sqrt(2)) <= 1e-12
    assert err.startswith("min gap 0.707107 at s = 0.5")


def test_gap_two_level_closed_form(capsys):
    code, out, _ = run_cli(capsys, "gap", "--two-level", "--grid", "1001")
    assert code == 0
    for row in csv.DictReader(io.StringIO(out)):
        s = float(row["s"])
        assert float(row["gap"]) == pytest.approx(math.hypot(1 - s, s), abs=1e-12)


def test_gap_grid_too_small(capsys):
    code, _, err = run_cli(capsys, "gap", "--grid", "2", "--two-level")
    assert code == 1
    assert "usage error" in err


def test_record_config_block_reproduces_results(capsys):
    code, out, _ = run_cli(capsys, "simon", "--n", "5", "--seed", "13")
    assert code == 0
    record = json.loads(out)
    cfg = record["config"]
    argv = [
        "simon", "--n", str(cfg["n"]), "--a", str(cfg["a"]),
        "--time", str(cfg["total_time"]), "--steps", str(cfg["steps"]),
        "--path", cfg["path"], "--seed", str(cfg["seed"]),
        "--max-repeats", str(cfg["max_repeats"]),
    ]
    code2, out2, _ = run_cli(capsys, *argv)
    assert code2 == 0
    replay = json.loads(out2)
    results_a = dict(record["results"])
    results_b = dict(replay["results"])
    results_a.pop("wall_time")
    results_b.pop("wall_time")
    assert results_a == results_b
    assert replay["config"] == record["config"]


def test_out_file_and_stdout_purity(tmp_path, capsys):
    out_path = tmp_path / "record.json"
    code, out, _ = run_cli(
        capsys, "bv", "--n", "4", "--a", "5", "--seed", "1", "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    record = json.loads(out_path.read_text())
    assert record["results"]["recovered_a"] == 5


def test_env_var_master_seed(capsys, monkeypatch):
    monkeypatch.setenv("ADIABATIC_SIM_SEED", "99")
    code, out, _ = run_cli(capsys, "bv", "--n", "4")
    assert code == 0
    assert json.loads(out)["provenance"]["seed"] == 99


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ("bv", "--n", "4", "--time", "inf"),
    ("bv", "--n", "4", "--time", "nan"),
    ("bv", "--n", "4", "--time", "inf", "--steps", "10"),
    ("bv", "--n", "4", "--time", "1e308"),
    ("sweep", "--axis", "n", "--values", "2,3", "--problem", "bv", "--time", "1e307",
     "--trials", "1"),
    ("sweep", "--axis", "T", "--values", "inf", "--problem", "bv", "--trials", "1"),
    ("simon", "--n", "25", "--scramble-seed", "1"),
    ("simon", "--n", "21", "--scramble-seed", "1"),
    ("simon", "--n", "4", "--scramble-seed", "-1"),
    ("sweep", "--axis", "T", "--values", "1,2", "--problem", "simon", "--scramble-seed", "-3",
     "--trials", "1"),
    ("bv", "--n", "20", "--path", "full"),
    ("simon", "--n", "11", "--path", "full"),
    ("bv", "--n", "4", "--time", "1e6"),
    ("sweep", "--axis", "steps", "--values", "2000000", "--problem", "bv", "--trials", "1"),
    ("gap", "--problem", "bv", "--n", "25"),
    ("gap", "--problem", "simon", "--n", "11"),
    ("gap", "--two-level", "--grid", "1048577"),
    ("gap", "--n", "61"),
    ("bv", "--n", "1025"),
    ("simon", "--n", "1025"),
    ("bv", "--n", "1000000"),
    ("simon", "--n", "1000000"),
    # a BV oracle has no output labels to scramble
    ("sweep", "--axis", "T", "--values", "1,2", "--problem", "bv", "--scramble-seed", "5",
     "--trials", "1"),
])
def test_bad_inputs_are_one_line_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error") and err.count("\n") == 1
    if argv[0] == "gap" and "--n" in argv:
        assert "dense" in err  # the gap scan is refused by the dense cap, not the factored one


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "record.json"
    code, out, err = run_cli(
        capsys, "bv", "--n", "4", "--a", "5", "--seed", "1", "--out", str(missing),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("usage error") and err.count("\n") == 1


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("problem", ["bv", "simon"])
def test_gap_draws_the_run_mask(capsys, problem):
    # without --a, gap scans the mask a run with the same seed would draw
    from adiabatic_sim.protocols import RunConfig, resolve_config

    a = resolve_config(RunConfig(problem, 3, seed=21)).a
    drawn = run_cli(capsys, "gap", "--problem", problem, "--n", "3", "--seed", "21", "--grid", "11")
    given = run_cli(capsys, "gap", "--problem", problem, "--n", "3", "--a", str(a), "--grid", "11")
    assert drawn[0] == 0 and drawn == given
