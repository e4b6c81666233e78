"""CLI contract: flags, exit codes, payload formats, reproducibility."""

import csv
import io
import json
import math

import pytest

from adiabatic_sim.cli import build_parser, main


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
    assert record["schema_version"] == "5"
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
    # a separate evolve_full on the same config gives this value
    assert json.loads(out)["results"]["max_factored_deviation"] == 4.160745015512004e-15


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
    ("gap", "--problem", "simon", "--n", "7"),
    ("gap", "--two-level", "--grid", "1048577"),
    ("gap", "--n", "61"),
])
def test_bad_inputs_are_one_line_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error") and err.count("\n") == 1
    if argv[0] == "gap" and "--n" in argv:
        assert "dense" in err  # the gap scan is refused by a dense cap, not the factored one


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
