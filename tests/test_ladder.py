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
    assert {"label", "created", "quick", "git", "machine", "versions", "threads", "rows"} <= set(record)
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
    assert len(set(names)) == len(names)
    assert {row["kind"] for row in record["rows"]} == {"end_to_end", "layer"}
    for row in record["rows"]:
        assert row["rounds"] == 3 and row["calls_per_round"] == 1 and row["unit"] == "us"
        assert 0 < row["q1"] <= row["median"] <= row["q3"]
        assert row["iqr"] == pytest.approx(row["q3"] - row["q1"])


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
