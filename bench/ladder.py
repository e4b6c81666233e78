"""Benchmark ladder of adiabatic_sim: whole runs over n, and each layer on fixed inputs.

    python3 bench/ladder.py --label 1ff4d73            # writes bench/BENCH_1ff4d73.json
    python3 bench/ladder.py --quick --out /tmp/ladder.json
    python3 bench/ladder.py --label new --compare bench/BENCH_1ff4d73.json

The library is imported from ``src/`` beside this script's directory, so a
copy of the script in another checkout measures that checkout.  Each row is
one call of a public entry point (end to end) or of one layer on inputs built
before timing (layer).  A row's calls are timed in rounds of a fixed count,
calibrated to about ``ROUND_S`` a round; the rounds of all rows are
interleaved, so a slow spell of a shared machine spreads over every row
instead of landing on one.  Per row the file holds the median, quartiles and
IQR of the per-call time in microseconds, the rounds and the calls a round.

Every row names the library attributes it calls, and they are resolved before
anything is timed: a name that does not resolve raises, so a renamed layer
fails here instead of reading 0.  ``--quick`` times each row once a round for
three rounds, to check that the ladder runs; its figures are not measurements.
Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

ROUND_S = 0.05         # calibrated length of one round
ROUNDS = 21
QUICK_ROUNDS = 3
LADDER_N = (8, 24, 60, 256, 1024)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Row(NamedTuple):
    name: str
    kind: str          # "end_to_end" or "layer"
    targets: tuple     # the dotted library names the row calls
    call: Callable[[int], object]  # call(i): the i-th call of a round


def resolve(dotted: str):
    """The attribute ``module.name`` of adiabatic_sim; raises LookupError if absent."""
    module_name, _, attr = dotted.partition(".")
    try:
        module = importlib.import_module(f"adiabatic_sim.{module_name}")
    except ImportError as exc:
        raise LookupError(f"ladder target {dotted!r} does not resolve: {exc}") from None
    try:
        return getattr(module, attr)
    except AttributeError:
        raise LookupError(f"ladder target {dotted!r} does not resolve") from None


def build_rows() -> list[Row]:
    """Every row of the ladder, its targets resolved and its inputs built."""
    lib = {name: resolve(name) for name in (
        "protocols.RunConfig", "protocols.run_bv", "protocols.run_simon", "protocols.sweep",
        "protocols._branch_law", "measurement.RandomSource", "measurement._read_factored",
        "oracles.simon_build", "oracles.simon_orthogonal_row", "evolution.Schedule",
        "evolution.evolve_two_level", "hamiltonians.TwoLevelBlock", "gf2.Gf2Matrix",
        "gf2.recover_mask",
    )}
    config = lib["protocols.RunConfig"]
    run_bv, run_simon = lib["protocols.run_bv"], lib["protocols.run_simon"]
    rows = []
    for n in LADDER_N:
        rows.append(Row(f"run_bv factored n={n}", "end_to_end", ("protocols.run_bv",),
                        lambda i, n=n: run_bv(config("bv", n, seed=i))))
        rows.append(Row(f"run_simon factored n={n}", "end_to_end", ("protocols.run_simon",),
                        lambda i, n=n: run_simon(config("simon", n, seed=i))))
    rows.append(Row("run_simon factored n=60 T=0.5", "end_to_end", ("protocols.run_simon",),
                    lambda i: run_simon(config("simon", 60, total_time=0.5, seed=i))))
    for n in (12, 16, 20):
        rows.append(Row(f"run_simon scrambled n={n}", "end_to_end", ("protocols.run_simon",),
                        lambda i, n=n: run_simon(config("simon", n, scramble_seed=7, seed=i))))

    sweep, branch_law = lib["protocols.sweep"], lib["protocols._branch_law"]

    def cold_sweep(i):
        branch_law.cache_clear()  # every value integrates its branch
        return sweep("T", [1.0, 2.0, 3.0], {"problem": "simon", "n": 4, "steps": 5000, "seed": i}, 4)

    rows.append(Row("sweep T simon n=4 steps=5000 3x4 cold", "end_to_end",
                    ("protocols.sweep", "protocols._branch_law"), cold_sweep))

    # layers, on inputs built here
    read, simon_build = lib["measurement._read_factored"], lib["oracles.simon_build"]
    q = branch_law(50.0, 5000)[0]
    rng = lib["measurement.RandomSource"](1, 1)
    for n in (4, 15, 60):
        oracle = simon_build(n, (1 << (n - 1)) | 5)
        for shots in sorted({1, 2, n - 1}):
            rows.append(Row(f"_read_factored linear n={n} rows={shots}", "layer",
                            ("measurement._read_factored",),
                            lambda i, oracle=oracle, shots=shots: read(oracle, q, rng, shots)))
    evolve, block, schedule = (lib["evolution.evolve_two_level"], lib["hamiltonians.TwoLevelBlock"],
                               lib["evolution.Schedule"])
    rows.append(Row("evolve_two_level steps=5000", "layer", ("evolution.evolve_two_level",),
                    lambda i: evolve(block(0), schedule(50.0, 5000))))
    matrix, recover, orthogonal = (lib["gf2.Gf2Matrix"], lib["gf2.recover_mask"],
                                   lib["oracles.simon_orthogonal_row"])
    draw = np.random.default_rng(1024)
    for n in (60, 256, 1024):
        oracle = simon_build(n, (1 << (n - 1)) | int(draw.integers(1, 1 << 62)) % (1 << (n - 1)))
        ts = [int.from_bytes(draw.bytes(n // 8), "little") % (1 << (n - 1)) for _ in range(n - 1)]
        system_rows = [orthogonal(oracle, t) for t in ts]

        def reduce(i, n=n, system_rows=system_rows):
            system = matrix(n)
            for x in system_rows:
                system.add_row(x)
            return recover(system)

        rows.append(Row(f"gf2 reduce n={n} rows={n - 1}", "layer",
                        ("gf2.Gf2Matrix", "gf2.recover_mask"), reduce))
    return rows


def time_round(row: Row, calls: int) -> float:
    """Seconds per call over one round of ``calls`` calls, garbage collection off."""
    gc.disable()
    try:
        t0 = perf_counter()
        for i in range(calls):
            row.call(i)
        return (perf_counter() - t0) / calls
    finally:
        gc.enable()


def calibrate(row: Row) -> int:
    """Calls a round of about ROUND_S: tenfold counts until a round takes a fifth of it."""
    calls = 1
    while True:
        per_call = time_round(row, calls)
        if per_call * calls >= ROUND_S / 5:
            return max(1, round(ROUND_S / per_call))
        calls *= 10


def measure(rows: list[Row], rounds: int, quick: bool) -> list[dict]:
    """Calibrate each row, then time the rows' rounds interleaved."""
    counts = []
    for row in rows:
        time_round(row, 1)  # warms caches
        counts.append(1 if quick else calibrate(row))
    times = [[] for _ in rows]
    for _ in range(rounds):
        for row, calls, samples in zip(rows, counts, times):
            samples.append(time_round(row, calls) * 1e6)
    results = []
    for row, calls, samples in zip(rows, counts, times):
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        results.append({
            "name": row.name, "kind": row.kind, "targets": list(row.targets), "unit": "us",
            "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "rounds": rounds, "calls_per_round": calls,
        })
    return results


def git_state() -> dict:
    """The checkout's commit and whether its tracked files differ from it; None outside git."""
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.strip() != ""
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": dirty}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def blas() -> dict:
    try:
        found = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {key: found.get(key) for key in ("name", "version", "openblas configuration")}


def environment(label: str, quick: bool) -> dict:
    return {
        "label": label,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": quick,
        "git": git_state(),
        "machine": {
            "system": platform.system(), "release": platform.release(),
            "machine": platform.machine(), "cpu": cpu_model(), "cpu_count": os.cpu_count(),
            "loadavg_at_start": list(os.getloadavg()) if hasattr(os, "getloadavg") else None,
        },
        "versions": {
            "python": platform.python_version(), "numpy": np.__version__,
            "adiabatic_sim": importlib.import_module("adiabatic_sim").__version__,
        },
        "threads": {"env": {name: os.environ.get(name) for name in THREAD_VARS}, "blas": blas()},
    }


def compare(new: dict, old: dict) -> str:
    """One line a row: the medians, new over old, and each IQR as a share of its median."""
    previous = {row["name"]: row for row in old["rows"]}
    lines = [f"{'row':44} {'old us':>11} {'new us':>11} {'new/old':>8} {'old iqr':>8} {'new iqr':>8}"]
    for row in new["rows"]:
        before = previous.pop(row["name"], None)
        if before is None:
            lines.append(f"{row['name']:44} {'-':>11} {row['median']:11.2f}   (new row)")
            continue
        lines.append(
            f"{row['name']:44} {before['median']:11.2f} {row['median']:11.2f} "
            f"{row['median'] / before['median']:8.3f} {before['iqr'] / before['median']:8.1%} "
            f"{row['iqr'] / row['median']:8.1%}")
    lines.extend(f"{name:44} (only in the old file)" for name in previous)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default=None,
                        help="names the file BENCH_<label>.json (default: the git commit, "
                             "with -dirty if tracked files differ from it)")
    parser.add_argument("--out", default=None, help="write here instead of bench/BENCH_<label>.json")
    parser.add_argument("--quick", action="store_true", help="three single-call rounds a row")
    parser.add_argument("--compare", default=None, metavar="OLD.json",
                        help="print each row's median against an earlier file")
    args = parser.parse_args(argv)

    rows = build_rows()
    label = args.label
    if label is None:
        state = git_state()
        label = f"{state['commit']}{'-dirty' * state['dirty']}" if state["commit"] else "unlabeled"
    record = environment(label, args.quick)
    record["rows"] = measure(rows, QUICK_ROUNDS if args.quick else ROUNDS, args.quick)
    out = Path(args.out) if args.out else HERE / f"BENCH_{label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    if args.compare:
        print(compare(record, json.loads(Path(args.compare).read_text())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
