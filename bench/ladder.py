"""Benchmark ladder of adiabatic_sim: whole runs over n, and each layer on fixed inputs.

    python3 bench/ladder.py --label 1ff4d73            # writes bench/BENCH_1ff4d73.json
    python3 bench/ladder.py --quick --out /tmp/ladder.json
    python3 bench/ladder.py --label new --compare bench/BENCH_1ff4d73.json
    python3 bench/ladder.py --pairs 5 --parent ../parent-checkout --label new

The library is imported from ``src/`` beside this script's directory, so a
copy of the script in another checkout measures that checkout; ``--src DIR``
measures the library in DIR instead, leaving out the rows whose targets it
lacks and listing those targets.  Each row is one call of a public entry
point (end to end) or of one layer on inputs built before timing (layer).  A
row's calls are timed in rounds of a fixed count, calibrated to about
``ROUND_S`` a round; the rounds of all rows are interleaved, so a slow spell
of a shared machine spreads over every row instead of landing on one.  As in
``perfbench/run.py``, a reference kernel of fixed scalar work runs between
rounds, and each round's time is scaled by the kernel's nominal time over
its mean time just before and just after the round: a neighbour that slows
the round slows the kernel beside it alike.  Per row the file holds the
median, quartiles and IQR of the scaled per-call time in microseconds, the
unscaled median, the rounds and the calls a round.

``--pairs K --parent CHECKOUT`` runs this ladder K times on each library in
fresh processes, alternating which goes first, and writes one record per
checkout, named by its commit: each row's quartiles over all its rounds and
the median of each run, so ``--compare`` can count the pairs a change won.

Every row names the library attributes it calls, and they are resolved before
anything is timed: a name that does not resolve raises, so a renamed layer
fails here instead of reading 0.  ``--quick`` times each row once a round for
three rounds, without a warm-up call, to check that the ladder runs; its
figures are not measurements.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

ROUND_S = 0.05         # calibrated length of one round
# perfbench/run.py's nominal reference kernel time: each round is scaled by
# it over the kernel's mean time just before and just after the round
REF_NOMINAL_S = 0.75e-3
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


def build_rows(missing: list | None = None) -> list[Row]:
    """Every row of the ladder, its targets resolved and its inputs built.

    A target that does not resolve raises, unless ``missing`` is a list: then
    the rows of its section are left out and the target appended there.
    """
    rows = []

    def section(*names):
        """The resolved names of one section of rows, or None if ``missing`` takes one."""
        found = {}
        for name in names:
            try:
                found[name] = resolve(name)
            except LookupError:
                if missing is None:
                    raise
                if name not in missing:
                    missing.append(name)
        return found if len(found) == len(names) else None

    if lib := section("protocols.RunConfig", "protocols.run_bv", "protocols.run_simon"):
        config = lib["protocols.RunConfig"]
        run_bv, run_simon = lib["protocols.run_bv"], lib["protocols.run_simon"]
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
        # the full path at T = 1 in one step: BV holds n + 1 qubits, Simon 2n - 1
        for problem, run, n in (("bv", run_bv, 11), ("bv", run_bv, 15), ("bv", run_bv, 18),
                                ("simon", run_simon, 6), ("simon", run_simon, 8),
                                ("simon", run_simon, 10)):
            qubits = n + 1 if problem == "bv" else 2 * n - 1
            rows.append(Row(f"run_{problem} full qubits={qubits} n={n} T=1 steps=1", "end_to_end",
                            (f"protocols.run_{problem}",),
                            lambda i, problem=problem, run=run, n=n: run(
                                config(problem, n, path="full", total_time=1.0, steps=1, seed=i))))

    if lib := section("protocols.sweep", "protocols._branch_law"):
        sweep, branch_law = lib["protocols.sweep"], lib["protocols._branch_law"]

        def cold_sweep(i):
            branch_law.cache_clear()  # every value integrates its branch
            return sweep("T", [1.0, 2.0, 3.0], {"problem": "simon", "n": 4, "steps": 5000, "seed": i}, 4)

        rows.append(Row("sweep T simon n=4 steps=5000 3x4 cold", "end_to_end",
                        ("protocols.sweep", "protocols._branch_law"), cold_sweep))

    # layers, on inputs built here
    if lib := section("protocols._branch_law", "measurement.RandomSource", "measurement._read_factored",
                      "measurement._bv_shot", "measurement._scrambled_row", "oracles.BvMask",
                      "oracles.simon_build"):
        read, simon_build = lib["measurement._read_factored"], lib["oracles.simon_build"]
        q = lib["protocols._branch_law"](50.0, 5000)[0]
        rng = lib["measurement.RandomSource"](1, 1)
        for n in (4, 15, 60):
            oracle = simon_build(n, (1 << (n - 1)) | 5)
            for shots in sorted({1, 2, n - 1}):
                rows.append(Row(f"_read_factored linear n={n} rows={shots}", "layer",
                                ("measurement._read_factored",),
                                lambda i, oracle=oracle, shots=shots: read(oracle, q, rng, shots)))
        scrambled = {n: simon_build(n, (1 << (n - 1)) | 5, scramble_seed=7) for n in (16, 20)}
        rows.append(Row("_read_factored scrambled n=16 rows=1", "layer", ("measurement._read_factored",),
                        lambda i: read(scrambled[16], q, rng, 1)))
        bv_shot, mask = lib["measurement._bv_shot"], lib["oracles.BvMask"](60, 12345)
        rows.append(Row("_bv_shot n=60", "layer", ("measurement._bv_shot",),
                        lambda i: bv_shot(mask, q, rng)))
        scrambled_row = lib["measurement._scrambled_row"]
        for n, oracle in scrambled.items():
            z = (1 << (n - 1)) - 1 - 0b1010  # a nonzero output outcome, most bits set
            rows.append(Row(f"_scrambled_row n={n}", "layer", ("measurement._scrambled_row",),
                            lambda i, oracle=oracle, z=z: scrambled_row(oracle, z, (i % 97 + 0.5) / 97)))

    if lib := section("evolution.Schedule", "evolution.evolve_two_level", "hamiltonians.TwoLevelBlock"):
        evolve, block, schedule = (lib["evolution.evolve_two_level"], lib["hamiltonians.TwoLevelBlock"],
                                   lib["evolution.Schedule"])
        rows.append(Row("evolve_two_level steps=5000", "layer", ("evolution.evolve_two_level",),
                        lambda i: evolve(block(0), schedule(50.0, 5000))))

    # the full path's layers at 16 qubits, BV n = 15: one step of dt = 0.01,
    # then the readout's rotation, once a run, and one shot
    if lib := section("evolution.Schedule", "evolution.evolve_full", "hamiltonians.interpolated",
                      "oracles.BvMask", "qstate.plus_state"):
        mask = lib["oracles.BvMask"](15, 0b101_1000_0111_0011)
        h, psi0 = lib["hamiltonians.interpolated"](mask), lib["qstate.plus_state"](15, 1)
        evolve_full, step = lib["evolution.evolve_full"], lib["evolution.Schedule"](0.01, 1)
        rows.append(Row("evolve_full one step qubits=16", "layer", ("evolution.evolve_full",),
                        lambda i: evolve_full(h, psi0, step)))
    if lib := section("evolution.assemble", "oracles.BvMask", "protocols.branch_pair",
                      "measurement.RandomSource", "measurement.rotate_output", "measurement.dense_shot"):
        mask = lib["oracles.BvMask"](15, 0b101_1000_0111_0011)
        final = lib["evolution.assemble"](mask, *lib["protocols.branch_pair"](5.0, 500))
        rotate, shot = lib["measurement.rotate_output"], lib["measurement.dense_shot"]
        rows.append(Row("rotate_output bv qubits=16", "layer", ("measurement.rotate_output",),
                        lambda i: rotate(final)))
        rotated, marginal = rotate(final)
        dense_rng = lib["measurement.RandomSource"](2, 1)
        rows.append(Row("dense_shot bv qubits=16", "layer", ("measurement.dense_shot",),
                        lambda i: shot(rotated, marginal, dense_rng)))

    if lib := section("gf2.Gf2Matrix", "gf2.recover_mask", "oracles.simon_build",
                      "oracles.simon_orthogonal_row"):
        matrix, recover, orthogonal, simon_build = (lib["gf2.Gf2Matrix"], lib["gf2.recover_mask"],
                                                    lib["oracles.simon_orthogonal_row"],
                                                    lib["oracles.simon_build"])
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


def reference() -> float:
    """Seconds taken by ``perfbench/run.py``'s reference kernel: a fixed 1500-step
    scalar loop of the float, complex, ``math`` and ``cmath`` operations of the
    branch integrator's scalar steps, touching no array."""
    t0 = perf_counter()
    u = complex(0.7)
    for j in range(1500):
        s = (j + 0.5) / 1500
        r = math.hypot(s, 0.5)
        u = cmath.exp(-1j * s * 0.01) * (math.cos(r) * u) + 1e-3
    return perf_counter() - t0


def quartiles(samples: list) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def measure(rows: list[Row], rounds: int, quick: bool) -> tuple[list[dict], float]:
    """Calibrate each row, then time the rows' rounds interleaved, each round
    scaled by REF_NOMINAL_S over the reference kernel's mean time just before
    and just after it.  Returns the rows and the kernel's median seconds."""
    counts = []
    for row in rows:
        if not quick:
            time_round(row, 1)  # warms caches
        counts.append(1 if quick else calibrate(row))
    times, raw = [[] for _ in rows], [[] for _ in rows]
    refs = [reference()]
    for _ in range(rounds):
        for row, calls, samples, raw_samples in zip(rows, counts, times, raw):
            per_call = time_round(row, calls)
            refs.append(reference())
            raw_samples.append(per_call * 1e6)
            samples.append(per_call * 1e6 * REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2))
    results = []
    for row, calls, samples, raw_samples in zip(rows, counts, times, raw):
        results.append({
            "name": row.name, "kind": row.kind, "targets": list(row.targets), "unit": "us",
            **quartiles(samples), "raw_median": statistics.median(raw_samples),
            "rounds": rounds, "calls_per_round": calls, "samples": samples,
        })
    return results, statistics.median(refs)


def git_state(root: Path = ROOT) -> dict:
    """The checkout's commit and whether its tracked files differ from it; None outside git."""
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root, capture_output=True,
                                text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
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


def default_label(root: Path = ROOT) -> str:
    """The checkout's commit, with -dirty if tracked files differ from it."""
    state = git_state(root)
    return f"{state['commit']}{'-dirty' * state['dirty']}" if state["commit"] else "unlabeled"


def environment(label: str, quick: bool, root: Path = ROOT) -> dict:
    return {
        "label": label,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": quick,
        "git": git_state(root),
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
    """One line a row: the medians, new over old, each IQR as a share of its median
    and, for records of alternating runs, the pairs in which the new run was faster."""
    previous = {row["name"]: row for row in old["rows"]}
    lines = [f"{'row':48} {'old us':>11} {'new us':>11} {'new/old':>8} {'old iqr':>8} {'new iqr':>8}"
             f" {'faster':>7}"]
    for row in new["rows"]:
        before = previous.pop(row["name"], None)
        if before is None:
            lines.append(f"{row['name']:48} {'-':>11} {row['median']:11.2f}   (new row)")
            continue
        line = (f"{row['name']:48} {before['median']:11.2f} {row['median']:11.2f} "
                f"{row['median'] / before['median']:8.3f} {before['iqr'] / before['median']:8.1%} "
                f"{row['iqr'] / row['median']:8.1%}")
        pairs = list(zip(row.get("run_medians", []), before.get("run_medians", [])))
        if pairs:
            line += f" {sum(now < then for now, then in pairs):3}/{len(pairs)}"
        lines.append(line)
    lines.extend(f"{name:48} (only in the old file)" for name in previous)
    if ("reference" in new) != ("reference" in old):
        lines.append("one file's rows are scaled by the reference kernel and the other's are not")
    return "\n".join(lines)


def child_run(src: Path, out: Path, quick: bool) -> dict:
    """The record of this ladder on the library in ``src``, run in a fresh process."""
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--src", str(src), "--out", str(out)]
                   + ["--quick"] * quick, check=True)
    return json.loads(out.read_text())


def pool(records: list, label: str) -> dict:
    """One record of a checkout's runs: each row's quartiles over the rounds of
    every run, and each run's median in ``run_medians``, in run order."""
    rows = []
    for row in records[0]["rows"]:
        runs = [next(r for r in record["rows"] if r["name"] == row["name"]) for record in records]
        samples = [x for r in runs for x in r["samples"]]
        rows.append({
            **{key: row[key] for key in ("name", "kind", "targets", "unit", "calls_per_round")},
            **quartiles(samples), "raw_median": statistics.median(r["raw_median"] for r in runs),
            "rounds": len(samples), "run_medians": [r["median"] for r in runs],
        })
    reference = [record["reference"]["median_us"] for record in records]
    return {**records[0], "label": label, "runs": len(records),
            "reference": {**records[0]["reference"], "median_us": statistics.median(reference)},
            "rows": rows}


def run_pairs(pairs: int, parent: Path, quick: bool, scratch: Path, run=child_run) -> tuple[dict, dict]:
    """(parent record, change record) of ``pairs`` alternating pairs of fresh runs of
    this ladder, on the library of the checkout ``parent`` and on this one's; this
    one runs first in even pairs and second in odd ones.  The parent's record
    leaves out the rows of targets its library lacks; this checkout's lacks none."""
    sides = {"parent": parent / "src", "change": ROOT / "src"}
    records = {side: [] for side in sides}
    for i in range(pairs):
        for side in sorted(sides, reverse=i % 2 == 1):  # "change" sorts before "parent"
            records[side].append(run(sides[side], scratch / f"{side}-{i}.json", quick))
    missing = records["change"][0]["missing_targets"]
    if missing:
        raise LookupError(f"ladder targets {missing} do not resolve in this checkout")
    return (pool(records["parent"], default_label(parent)), pool(records["change"], default_label()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default=None,
                        help="names the file BENCH_<label>.json (default: the git commit, "
                             "with -dirty if tracked files differ from it)")
    parser.add_argument("--out", default=None, help="write here instead of bench/BENCH_<label>.json")
    parser.add_argument("--quick", action="store_true", help="three single-call rounds a row")
    parser.add_argument("--compare", default=None, metavar="OLD.json",
                        help="print each row's median against an earlier file")
    parser.add_argument("--src", default=None, metavar="DIR",
                        help="time the library in DIR, a checkout's src/, leaving out the rows "
                             "of targets it lacks, instead of the one beside this script")
    parser.add_argument("--pairs", type=int, default=0, metavar="K",
                        help="run K alternating pairs of fresh runs on --parent's library and "
                             "this one's, and write both records")
    parser.add_argument("--parent", default=None, metavar="CHECKOUT",
                        help="the checkout that --pairs compares with")
    args = parser.parse_args(argv)

    if args.pairs:
        if args.parent is None or args.src is not None:
            parser.error("--pairs needs --parent and times this checkout, not --src")
        with tempfile.TemporaryDirectory() as scratch:
            old, new = run_pairs(args.pairs, Path(args.parent).resolve(), args.quick, Path(scratch))
        if args.label:
            new["label"] = args.label
        out = Path(args.out) if args.out else HERE / f"BENCH_{new['label']}.json"
        old_out = out.with_name(f"BENCH_{old['label']}.json")
        for record, path in ((old, old_out), (new, out)):
            path.write_text(json.dumps(record, indent=1) + "\n")
            print(f"wrote {path}", file=sys.stderr)
        print(compare(new, old))
        return 0

    missing = None
    root = ROOT
    if args.src:
        sys.path.insert(0, str(Path(args.src).resolve()))
        missing, root = [], Path(args.src).resolve().parent
    rows = build_rows(missing)
    record = environment(args.label or default_label(root), args.quick, root)
    record["rows"], reference_s = measure(rows, QUICK_ROUNDS if args.quick else ROUNDS, args.quick)
    record["reference"] = {"nominal_us": REF_NOMINAL_S * 1e6, "median_us": reference_s * 1e6}
    record["missing_targets"] = missing or []
    out = Path(args.out) if args.out else HERE / f"BENCH_{record['label']}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    if args.compare:
        print(compare(record, json.loads(Path(args.compare).read_text())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
