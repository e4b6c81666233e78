"""Seeded reports and one sweep table against the values recorded in golden_reports.json.

A seeded run must reproduce its report whatever the code underneath does.
The discrete fields must match exactly and the fidelities to a relative
1e-12.  A change that means to alter seeded outputs bumps
``cli.SCHEMA_VERSION`` and regenerates the file:

    PYTHONPATH=src python tests/test_golden_reports.py --write

which refuses to run without the bump and prints, against the file it
replaces, how many discrete fields changed, how many runs went from failure
to success and back, and the largest relative change of a fidelity.
"""

import json
import math
import random
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from adiabatic_sim.cli import SCHEMA_VERSION
from adiabatic_sim.protocols import RunConfig, run, sweep

GOLDEN = Path(__file__).with_name("golden_reports.json")
FIDELITY_FIELDS = ("per_run_fidelity", "mean_fidelity")
SCHEDULES = ((0.5, 50), (1.0, 100), (5.77, 577), (50.0, 5000))
SWEEP = dict(axis="T", values=[0.5, 1.0, 5.77, 50.0], trials=20,
             base=dict(problem="simon", n=6, steps=500, seed=-7))


def golden_configs() -> list:
    """About 200 seeded configs: BV, linear and scrambled Simon, and the full path."""
    picks = random.Random(2013)
    configs = []
    for kind in ("bv", "simon", "scrambled", "full"):
        for i in range(58 if kind != "full" else 26):
            problem = "bv" if kind == "bv" or (kind == "full" and i % 2) else "simon"
            if kind == "full":
                n, (total_time, steps) = picks.randint(2, 4 if problem == "bv" else 3), (5.0, 120)
            else:
                n = picks.randint(2, 12 if kind == "scrambled" else 60)
                total_time, steps = SCHEDULES[i % len(SCHEDULES)]
            seed = picks.choice(
                [picks.getrandbits(64) | 1 << 63, -picks.getrandbits(62), picks.getrandbits(63)]
            )
            a = picks.choice([None, picks.randrange(1, 1 << n)])
            configs.append(RunConfig(
                problem, n, a=a, total_time=total_time, steps=steps,
                path="full" if kind == "full" else "factored", seed=seed,
                max_repeats=picks.choice([None, None, 1, 2, max(1, n - 2), 20 * n]),
                scramble_seed=picks.getrandbits(31) if kind == "scrambled" else None,
            ))
    return configs


def report_of(cfg: RunConfig) -> dict:
    report = asdict(run(cfg))
    del report["wall_time"]
    return report


def sweep_rows() -> list:
    rows = [asdict(row) for row in sweep(SWEEP["axis"], SWEEP["values"], SWEEP["base"],
                                         SWEEP["trials"])]
    for row in rows:
        del row["wall_ms"]
    return rows


def assert_same(got: dict, want: dict, where) -> None:
    assert got.keys() == want.keys(), where
    for key, value in want.items():
        if key in FIDELITY_FIELDS:
            assert math.isclose(got[key], value, rel_tol=1e-12, abs_tol=0.0), (where, key)
        else:
            assert got[key] == value, (where, key)


def test_golden_file_matches_schema_version():
    assert json.loads(GOLDEN.read_text())["schema_version"] == SCHEMA_VERSION


def test_seeded_reports_match_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden["runs"]) >= 190
    for entry in golden["runs"]:
        cfg = RunConfig(**entry["config"])
        assert_same(report_of(cfg), entry["report"], cfg)


def test_sweep_table_matches_golden_file():
    golden = json.loads(GOLDEN.read_text())["sweep"]
    assert {key: golden[key] for key in SWEEP} == SWEEP
    rows = sweep_rows()
    assert len(rows) == len(golden["rows"])
    for got, want in zip(rows, golden["rows"]):
        assert_same(got, want, want["axis_value"])


def changes(old: dict, new: dict) -> tuple:
    """Per discrete field, how many pinned values differ; how many runs turned
    to success (key True) and to failure (False); and the largest relative
    fidelity change, over runs with the same config and the sweep rows."""
    old_reports = {json.dumps(e["config"], sort_keys=True): e["report"] for e in old["runs"]}
    pairs = [(old_reports[key], e["report"]) for e in new["runs"]
             if (key := json.dumps(e["config"], sort_keys=True)) in old_reports]
    if all(old["sweep"][key] == new["sweep"][key] for key in SWEEP):
        pairs += zip(old["sweep"]["rows"], new["sweep"]["rows"])
    discrete, flips, largest = Counter(), Counter(), 0.0
    for before, after in pairs:
        for key, value in after.items():
            if key in FIDELITY_FIELDS:
                largest = max(largest, abs(value - before[key]) / abs(before[key] or 1.0))
            elif before.get(key) != value:
                discrete[key] += 1
                if key == "success":
                    flips[value] += 1
    return len(pairs), discrete, flips, largest


def write() -> None:
    old = json.loads(GOLDEN.read_text())
    if old["schema_version"] == SCHEMA_VERSION:
        sys.exit(f"{GOLDEN.name} already pins schema {SCHEMA_VERSION}; "
                 "bump cli.SCHEMA_VERSION before re-pinning seeded outputs")
    runs = [{"config": asdict(cfg), "report": report_of(cfg)} for cfg in golden_configs()]
    golden = {
        "schema_version": SCHEMA_VERSION,
        "runs": runs,
        "sweep": {**SWEEP, "rows": sweep_rows()},
    }
    compared, discrete, flips, largest = changes(old, golden)
    print(f"schema {old['schema_version']} -> {SCHEMA_VERSION}: compared {compared} "
          f"reports and rows; discrete fields changed: {sum(discrete.values())}"
          + "".join(f", {key} {count}" for key, count in sorted(discrete.items())))
    print(f"runs from failure to success: {flips[True]}; from success to failure: {flips[False]}")
    print(f"largest relative fidelity change: {largest:.3g}")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(runs)} reports and {len(golden['sweep']['rows'])} sweep rows to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_reports.py --write")
    write()
