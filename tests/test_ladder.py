"""The benchmark ladder: it runs, writes its documented record, and resolves every name it times."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

LADDER = Path(__file__).resolve().parents[1] / "bench" / "ladder.py"


def load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_ladder_writes_every_row(tmp_path):
    out = tmp_path / "BENCH_quick.json"
    subprocess.run([sys.executable, str(LADDER), "--quick", "--out", str(out)],
                   check=True, capture_output=True, timeout=60)
    record = json.loads(out.read_text())
    assert {"label", "created", "quick", "git", "machine", "versions", "threads", "rows",
            "reference", "missing_targets"} <= set(record)
    assert record["missing_targets"] == [] and record["reference"]["median_us"] > 0
    assert record["quick"] is True
    assert set(record["threads"]["env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert {"python", "numpy", "adiabatic_sim"} <= set(record["versions"])
    names = [row["name"] for row in record["rows"]]
    for n in (8, 24, 60, 256, 1024):
        assert {f"run_bv factored n={n}", f"run_simon factored n={n}"} <= set(names)
    for n in (12, 16, 20):
        assert f"run_simon scrambled n={n}" in names
    for n, shots in ((4, 1), (4, 2), (4, 3), (15, 1), (15, 2), (15, 14), (60, 1), (60, 2), (60, 59)):
        assert f"_read_factored linear n={n} rows={shots}" in names
    for n in (60, 256, 1024):
        assert f"gf2 reduce n={n} rows={n - 1}" in names
    assert {"run_simon factored n=60 T=0.5", "sweep T simon n=4 steps=5000 3x4 cold",
            "evolve_two_level steps=5000"} <= set(names)
    for qubits, n in ((12, 11), (16, 15), (19, 18)):
        assert f"run_bv full qubits={qubits} n={n} T=1 steps=1" in names
    for qubits, n in ((11, 6), (15, 8), (19, 10)):
        assert f"run_simon full qubits={qubits} n={n} T=1 steps=1" in names
    assert {"evolve_full one step qubits=16", "rotate_output bv qubits=16", "dense_shot bv qubits=16",
            "_bv_shot n=60", "_read_factored scrambled n=16 rows=1", "_scrambled_row n=16",
            "_scrambled_row n=20"} <= set(names)
    assert len(set(names)) == len(names)
    assert {row["kind"] for row in record["rows"]} == {"end_to_end", "layer"}
    for row in record["rows"]:
        assert row["rounds"] == 3 and row["calls_per_round"] == 1 and row["unit"] == "us"
        assert 0 < row["q1"] <= row["median"] <= row["q3"]
        assert row["iqr"] == pytest.approx(row["q3"] - row["q1"])
        assert len(row["samples"]) == 3 and row["raw_median"] > 0


def test_every_target_resolves_and_a_missing_one_raises():
    ladder = load_ladder()
    rows = ladder.build_rows()
    for row in rows:
        assert row.targets
        for target in row.targets:
            assert callable(ladder.resolve(target))
    with pytest.raises(LookupError, match="_no_such_layer"):
        ladder.resolve("measurement._no_such_layer")
    with pytest.raises(LookupError, match="no_such_module"):
        ladder.resolve("no_such_module.run")


def test_compare_reads_each_row_against_the_old_file():
    ladder = load_ladder()
    new = {"rows": [{"name": "a", "median": 3.0, "iqr": 0.3}, {"name": "b", "median": 1.0, "iqr": 0.1}]}
    old = {"rows": [{"name": "a", "median": 2.0, "iqr": 0.2}, {"name": "c", "median": 1.0, "iqr": 0.1}]}
    lines = ladder.compare(new, old).splitlines()[1:]
    assert lines[0].split()[:4] == ["a", "2.00", "3.00", "1.500"]
    assert "(new row)" in lines[1] and lines[1].startswith("b ")
    assert "(only in the old file)" in lines[2] and lines[2].startswith("c ")


def test_a_library_without_a_target_leaves_out_its_rows(monkeypatch):
    ladder = load_ladder()
    resolve = ladder.resolve

    def without_rotation(dotted):
        if dotted == "measurement.rotate_output":
            raise LookupError(dotted)
        return resolve(dotted)

    monkeypatch.setattr(ladder, "resolve", without_rotation)
    with pytest.raises(LookupError):
        ladder.build_rows()
    missing = []
    names = {row.name for row in ladder.build_rows(missing)}
    assert missing == ["measurement.rotate_output"]
    assert "rotate_output bv qubits=16" not in names and "dense_shot bv qubits=16" not in names
    assert {"evolve_full one step qubits=16", "run_bv factored n=8"} <= names


def fake_record(label: str, medians: dict, missing=()) -> dict:
    return {"label": label, "reference": {"nominal_us": 750.0, "median_us": 700.0},
            "missing_targets": list(missing),
            "rows": [{"name": name, "kind": "layer", "targets": ["x.y"], "unit": "us",
                      "calls_per_round": 1, "median": m, "raw_median": m, "samples": [m, m + 1, m + 2]}
                     for name, m in medians.items()]}


def test_pairs_alternate_fresh_runs_and_pool_their_rounds(tmp_path):
    ladder = load_ladder()
    calls = []

    def run(src, out, quick):
        side = "change" if src == ladder.ROOT / "src" else "parent"
        calls.append(side)
        base = 10.0 if side == "parent" else 8.0
        medians = {"a": base + len(calls), "b": 5.0}
        if side == "change":
            medians["new"] = 1.0
        return fake_record(side, medians, () if side == "change" else ["m.new"])

    old, new = ladder.run_pairs(3, tmp_path, quick=True, scratch=tmp_path, run=run)
    assert calls == ["change", "parent", "parent", "change", "change", "parent"]
    assert old["runs"] == new["runs"] == 3 and old["missing_targets"] == ["m.new"]
    a_old, a_new = old["rows"][0], new["rows"][0]
    assert a_old["run_medians"] == [12.0, 13.0, 16.0] and a_new["run_medians"] == [9.0, 12.0, 13.0]
    assert a_new["rounds"] == 9 and a_new["median"] == 13.0  # of 9, 10, 11, 12, 13, 14, 13, 14, 15
    assert [row["name"] for row in new["rows"]] == ["a", "b", "new"]
    lines = ladder.compare(new, old).splitlines()[1:]
    assert lines[0].split()[0] == "a" and lines[0].endswith("3/3")
    assert lines[1].endswith("0/3") and "(new row)" in lines[2]


def test_pairs_refuse_a_change_that_misses_a_target(tmp_path):
    ladder = load_ladder()
    with pytest.raises(LookupError, match="m.gone"):
        ladder.run_pairs(1, tmp_path, quick=True, scratch=tmp_path,
                         run=lambda src, out, quick: fake_record("x", {"a": 1.0}, ["m.gone"]))
