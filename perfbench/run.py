"""Benchmark of adiabatic_sim: closed-loop latency and throughput on four workloads.

    python3 perfbench/run.py --workload factored-readout --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

One process runs one workload: a closed loop, one op at a time, no threads
of its own; OpenBLAS keeps its default thread count, which is recorded.  The
library is imported from ``src/`` of the checkout and driven through its
public functions.

``--trace 0`` reports the end-to-end metrics.  A reference kernel of fixed
work runs between consecutive ops, and each op's time is scaled by the
kernel's nominal time over its mean time just before and after the op.  On a
shared machine a neighbour slows everything it overlaps by 1.4x to 3x, for
seconds at a time; the kernel beside the op is slowed alike, so the scaled
time is what the op costs at the kernel's nominal speed.  Set-up times are
scaled the same way, by the kernel's time just before and just after each
set-up, and ``setup_s`` is the fastest of several.  The unscaled figures
are printed too.  ``--trace 1`` reports the per-layer metrics,
unscaled: whole cycles of ops alternate between untraced and traced, the
spans of the traced ones give the metrics, and the scaled time of each
traced cycle over that of the untraced cycle before it is the tracing
overhead.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import cmath
import ctypes
import glob
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from spans import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Op, Workload  # noqa: E402

MIN_OPS = 100        # so that p90 has at least ten samples beyond it
# The reference kernel's median time over eighteen 24-second runs of the four
# workloads on a shared 2-core x86-64 VM (0.57-0.90 ms per run).  Op and
# set-up times are scaled by it over the kernel's time beside them.
REF_NOMINAL_S = 0.75e-3
REF_SETUP_RUNS = 9   # kernel runs just before and just after a set-up
SETUP_CHILDREN = 14  # fresh processes that repeat set-up; with this one, 15 set-ups
HARD_LIMIT_S = 120.0  # stop measuring even short of MIN_OPS, to exit within 180 s
CHILD_TIMEOUT_S = 60.0


def import_library() -> SimpleNamespace:
    """Import every adiabatic_sim module from the checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SimpleNamespace(
        **{name: importlib.import_module(f"adiabatic_sim.{name}") for name in MODULES}
    )


def set_up(name: str, seed: int):
    """Import, input generators and one untimed warm-up op per problem.

    Returns (library, workload, input generator, set-up seconds, reference
    kernel seconds just before and just after the set-up).
    """
    ref_before = statistics.median(reference() for _ in range(REF_SETUP_RUNS))
    t0 = perf_counter()
    lib = import_library()
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    warm_rng = random.Random("warm-up")  # the same for every seed: set-up is fixed work
    for kind in workload.warmup_kinds():
        op = workload.make_op(lib, warm_rng, kind)
        op.check(op.call(), op.expected)
    setup_s = perf_counter() - t0
    ref_after = statistics.median(reference() for _ in range(REF_SETUP_RUNS))
    return lib, workload, rng, setup_s, (ref_before + ref_after) / 2


def set_up_in_child(name: str, seed: int) -> tuple:
    """(set-up seconds, reference kernel seconds) measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    setup_s, ref = proc.stdout.split()[-2:]
    return float(setup_s), float(ref)


def blas_record(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                record["blas_threads"] = getter()
                return record
    return record


def execute(op: Op, tracing=nullcontext()) -> tuple:
    """Execute an op once: (timed seconds or None if it raised, output correct).

    Only the call runs inside ``tracing``; the check is neither timed nor traced.
    """
    try:
        with tracing:
            t0 = perf_counter()
            result = op.call()
            elapsed = perf_counter() - t0
    except Exception:
        traceback.print_exc()
        return None, False
    try:
        op.check(result, op.expected)
    except CheckFailed as exc:
        print(f"check failed on {op.kind}: {exc}", file=sys.stderr)
        return elapsed, False
    except Exception:  # the library call a check makes raised
        traceback.print_exc()
        return elapsed, False
    return elapsed, True


def reference() -> float:
    """Seconds taken by the reference kernel: a fixed 1500-step scalar loop.

    It runs between consecutive op executions and times the machine's speed
    at that moment.  Each step does the float and complex arithmetic and the
    ``math``/``cmath`` calls of one step of the scalar branch integrator, so
    a neighbour that slows that kind of code slows the kernel alike.  It
    touches no array.  An integer-only loop tracked the ops less well: on
    ``schedule-sweep``, op time over that loop's time rose by up to 1.2x in
    slow spells.
    """
    t0 = perf_counter()
    u = complex(0.7)
    for j in range(1500):
        s = (j + 0.5) / 1500
        r = math.hypot(s, 0.5)
        u = cmath.exp(-1j * s * 0.01) * (math.cos(r) * u) + 1e-3
    return perf_counter() - t0


def measure(workload: Workload, lib, rng, seconds: float, min_ops: int,
            reference, tracer=None) -> tuple:
    """Execute fresh ops in whole cycles; the reference kernel runs between executions.

    Cycles run until ``seconds`` have passed and ``min_ops`` ops ran.  With a
    tracer, cycles come in pairs, the first untraced and the second traced.
    Returns (ops, executions, output correct), where executions[i] is (op
    seconds or None, mean reference seconds just before and just after, traced)
    for op i.
    """
    ops, ok, executions = [], [], []
    ref_before = reference()
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(ops) >= min_ops) or elapsed >= HARD_LIMIT_S:
            break
        for traced in (False, True) if tracer is not None else (False,):
            for kind in workload.kinds:
                op = workload.make_op(lib, rng, kind)
                tracing = tracer.op(len(ops)) if traced else nullcontext()
                op_time, good = execute(op, tracing)
                ref_after = reference()
                ops.append(op)
                ok.append(good)
                executions.append((op_time, (ref_before + ref_after) / 2, traced))
                ref_before = ref_after
    return ops, executions, ok


def tracing_overhead(executions: list, cycle: int) -> float:
    """Scaled time of the traced cycles over the untraced cycle before each, minus 1.

    Only pairs in which every op returned count.
    """
    untraced = traced = 0.0
    for i in range(0, len(executions), 2 * cycle):
        pair = executions[i:i + 2 * cycle]
        if len(pair) < 2 * cycle or any(t is None for t, _, _ in pair):
            continue
        untraced += sum(t / ref for t, ref, _ in pair[:cycle])
        traced += sum(t / ref for t, ref, _ in pair[cycle:])
    return traced / untraced - 1.0 if untraced else 0.0


def end_to_end(scaled: list, runs: int, setup_times: list) -> dict:
    return {
        "runs_per_s": (runs / sum(scaled), "1/s"),
        "op_ms.p50": (statistics.median(scaled) * 1e3, "ms"),
        "op_ms.p90": (statistics.quantiles(scaled, n=10, method="inclusive")[8] * 1e3, "ms"),
        # Set-up is fixed work, so noise only adds to it: the fastest is the estimate.
        "setup_s": (min(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")


def run(name: str, seed: int, seconds: float, trace: bool,
        min_ops: int = MIN_OPS, setup_children: int = SETUP_CHILDREN) -> dict:
    """Measure one workload, print its report and return the result object."""
    load_start = os.getloadavg()
    setups = [set_up_in_child(name, seed) for _ in range(0 if trace else setup_children)]
    lib, workload, rng, setup_s, setup_ref = set_up(name, seed)
    setups.append((setup_s, setup_ref))
    setup_times = [t * REF_NOMINAL_S / ref for t, ref in setups]

    import numpy as np

    tracer = Tracer(vars(lib)) if trace else None
    ops, executions, ok = measure(workload, lib, rng, seconds, min_ops, reference, tracer)
    attempted, failed = len(ops), ok.count(False)
    machine = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_record(np),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    print(f"machine {json.dumps(machine)}")
    print(f"ops attempted {attempted}, failed {failed}")
    print(f"  {'fail_frac':<44} {failed / attempted:>14.6g} frac")
    timed = [(t, ref) for t, ref, traced in executions if t is not None and not traced]
    if not timed:
        sys.exit("error: every op raised; no latency to report")
    raw = [t for t, _ in timed]
    print(f"unscaled op_ms p50 {statistics.median(raw) * 1e3:.6g}, reference kernel ms p50 "
          f"{statistics.median(ref for _, ref in timed) * 1e3:.6g} (nominal {REF_NOMINAL_S * 1e3:g})")
    if trace:
        traced_ops = sum(traced for _, _, traced in executions)
        metrics = tracer.layer_metrics(traced_ops, tracing_overhead(executions, len(workload.kinds)))
        print(f"cycles alternate untraced and traced; per traced op, over {traced_ops} ops:")
        out = HERE / "out" / f"trace-{name}-seed{seed}.jsonl"
        tracer.dump(out)
        print(f"spans written to {out.relative_to(HERE.parent)}", file=sys.stderr)
    else:
        scaled = [t * REF_NOMINAL_S / ref for t, ref in timed]
        runs = sum(op.runs for op, good in zip(ops, ok) if good)
        metrics = end_to_end(scaled, runs, setup_times)
        p90 = metrics["op_ms.p90"][0] / 1e3
        print(f"op latency samples {len(scaled)}, beyond p90 {sum(t > p90 for t in scaled)}; "
              f"set-up samples {len(setup_times)}, unscaled set-up s min "
              f"{min(t for t, _ in setups):.6g}")
        print("scaled set-up s", " ".join(f"{t:.4f}" for t in setup_times))
    print_metrics(metrics)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so memory, set-up and caches are its alone."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the seconds it took (used for setup_s)")
    args = parser.parse_args(argv)
    if not (SRC / "adiabatic_sim" / "__init__.py").is_file():
        parser.error(f"{SRC / 'adiabatic_sim'} not found; run from a checkout of the repository")
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs one workload")
    if args.setup_only:
        print(*set_up(args.workload, args.seed)[3:])
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
