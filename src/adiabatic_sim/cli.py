"""Command-line front end: single runs, sweeps, gap scans.

Payloads (JSON for single runs, CSV for tables) go to stdout or --out;
anything diagnostic goes to stderr.  Exit codes: 0 success, 1 usage error,
2 protocol failure.  Masks are accepted in decimal, hex (0x...), or binary
(0b...).  ADIABATIC_SIM_SEED provides the default master seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from functools import cache

import numpy as np

from . import __version__
from .errors import SimulatorError
from .evolution import assemble_simon
from .hamiltonians import TwoLevelBlock, bv_interpolated, gap, gap_table, simon_interpolated
from .oracles import BvMask, simon_build
from .protocols import (
    MAX_STEPS,
    RunConfig,
    branch_pair,
    resolve_config,
    run_bv,
    run_simon,
    sweep,
)

SCHEMA_VERSION = "5"

SWEEP_COLUMNS = [
    "axis_value",
    "trials",
    "success_rate",
    "mean_fidelity",
    "mean_rows",
    "mean_restarts",
    "wall_ms",
]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own the exit codes
        raise UsageError(message)


def _mask(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _seed(args: argparse.Namespace) -> int:
    """--seed, or else $ADIABATIC_SIM_SEED, or else 0."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("ADIABATIC_SIM_SEED", "0")
    try:
        return int(raw, 0)
    except ValueError:
        raise UsageError(f"ADIABATIC_SIM_SEED must be an integer, got {raw!r}")


def _steps(args: argparse.Namespace) -> int:
    """--steps, or 100*T; T must be finite for the default."""
    if args.steps is not None:
        return args.steps
    if not math.isfinite(args.total_time):
        raise UsageError(f"--time must be finite, got {args.total_time}")
    return max(1, round(100 * args.total_time))


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="input register size")
    parser.add_argument("--a", type=_mask, default=None,
                        help="hidden mask (default: drawn from the seed)")
    parser.add_argument("--time", type=float, default=50.0, dest="total_time",
                        help="annealing runtime T (default 50)")
    parser.add_argument("--steps", type=int, default=None,
                        help="integrator steps (default 100*T)")
    parser.add_argument("--path", choices=("factored", "full"), default="factored")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default $ADIABATIC_SIM_SEED or 0)")
    parser.add_argument("--max-repeats", type=int, default=None)
    parser.add_argument("--out", default=None, help="write payload to a file")


def _config(args: argparse.Namespace, problem: str) -> RunConfig:
    """The config the run flags describe, unresolved: a sweep draws a mask per trial."""
    return RunConfig(
        problem=problem,
        n=args.n,
        a=args.a,
        total_time=args.total_time,
        steps=_steps(args),
        path=args.path,
        seed=_seed(args),
        max_repeats=getattr(args, "max_repeats", None),
        scramble_seed=getattr(args, "scramble_seed", None),
    )


def _resolve(cfg: RunConfig) -> RunConfig:
    try:
        return resolve_config(cfg)
    except SimulatorError as exc:
        raise UsageError(str(exc))


def _record(cfg: RunConfig, results: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg),
        "results": results,
        "provenance": {
            "seed": cfg.seed,
            "build_id": f"adiabatic-sim {__version__}",
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    }


def _emit(payload: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write --out: {exc}")
    else:
        sys.stdout.write(payload)


def cmd_bv(args: argparse.Namespace) -> int:
    cfg = _resolve(_config(args, "bv"))
    report = run_bv(cfg)
    _emit(json.dumps(_record(cfg, asdict(report)), indent=2) + "\n", args.out)
    return 0 if report.success else 2


def cmd_simon(args: argparse.Namespace) -> int:
    if args.compare_factored and args.path != "full":
        raise UsageError("--compare-factored needs --path full")
    cfg = _resolve(_config(args, "simon"))
    finals = []
    report = run_simon(cfg, finals.append if args.compare_factored else None)
    results = asdict(report)
    if args.compare_factored:
        phi0, phi1 = branch_pair("simon", cfg.total_time, cfg.steps)
        factored = assemble_simon(simon_build(cfg.n, cfg.a, cfg.scramble_seed), phi0, phi1)
        deviation = float(np.max(np.abs(finals[0].amps - factored.amps)))
        results["max_factored_deviation"] = deviation
    _emit(json.dumps(_record(cfg, results), indent=2) + "\n", args.out)
    return 0 if report.success else 2


def cmd_sweep(args: argparse.Namespace) -> int:
    if not args.values.strip():
        raise UsageError("--values must be a non-empty comma-separated list")
    cast = float if args.axis == "T" else int
    try:
        values = [cast(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --values entry: {exc}")
    if not values:
        raise UsageError("--values must be a non-empty comma-separated list")
    base = _config(args, args.problem)
    try:
        rows = sweep(args.axis, values, base, args.trials)
    except SimulatorError as exc:
        raise UsageError(str(exc))
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([getattr(row, col) for col in SWEEP_COLUMNS])
    _emit(buffer.getvalue(), args.out)
    return 0


def cmd_gap(args: argparse.Namespace) -> int:
    seed = _seed(args)
    if not 3 <= args.grid <= MAX_STEPS:
        raise UsageError(f"--grid must be between 3 and {MAX_STEPS}")
    try:
        if args.two_level:
            points = np.linspace(0.0, 1.0, args.grid)
            table = [(float(s), gap(TwoLevelBlock(0), float(s))) for s in points]
        else:
            if args.n is None:
                raise UsageError("--n is required unless --two-level is given")
            a = resolve_config(RunConfig(args.problem, args.n, args.a, path="full", seed=seed)).a
            if args.problem == "bv":
                h = bv_interpolated(BvMask(args.n, a))
            else:
                h = simon_interpolated(simon_build(args.n, a))
            table = gap_table(h, args.grid)
    except SimulatorError as exc:
        raise UsageError(str(exc))
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["s", "gap"])
    for s, value in table:
        writer.writerow([f"{s:.10g}", f"{value:.15g}"])
    _emit(buffer.getvalue(), args.out)
    s_min, gap_min = min(table, key=lambda pair: pair[1])
    print(f"min gap {gap_min:.6g} at s = {s_min:.6g}", file=sys.stderr)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every ``main`` call."""
    parser = _Parser(prog="adiabatic-sim",
                     description="Adiabatic BV / Simon simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bv = sub.add_parser("bv", help="run the Bernstein-Vazirani protocol")
    _add_run_flags(p_bv)
    p_bv.set_defaults(func=cmd_bv)

    p_simon = sub.add_parser("simon", help="run Simon's protocol")
    _add_run_flags(p_simon)
    p_simon.add_argument("--scramble-seed", type=int, default=None,
                         help="scramble the oracle's output labels")
    p_simon.add_argument("--compare-factored", action="store_true",
                         help="with --path full, also report the max deviation "
                              "from the factored state")
    p_simon.set_defaults(func=cmd_simon)

    p_sweep = sub.add_parser("sweep", help="aggregate runs over an axis")
    p_sweep.add_argument("--axis", choices=("n", "T", "steps"), required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--problem", choices=("bv", "simon"), required=True)
    p_sweep.add_argument("--n", type=int, default=4)
    p_sweep.add_argument("--a", type=_mask, default=None)
    p_sweep.add_argument("--time", type=float, default=50.0, dest="total_time")
    p_sweep.add_argument("--steps", type=int, default=None)
    p_sweep.add_argument("--path", choices=("factored", "full"), default="factored")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--scramble-seed", type=int, default=None)
    p_sweep.add_argument("--trials", type=int, default=100)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_gap = sub.add_parser("gap", help="scan the spectral gap along the schedule")
    p_gap.add_argument("--problem", choices=("bv", "simon"), default="bv")
    p_gap.add_argument("--n", type=int, default=None)
    p_gap.add_argument("--a", type=_mask, default=None)
    p_gap.add_argument("--grid", type=int, default=201)
    p_gap.add_argument("--two-level", action="store_true",
                       help="scan one decoupled branch instead of a dense system")
    p_gap.add_argument("--seed", type=int, default=None)
    p_gap.add_argument("--out", default=None)
    p_gap.set_defaults(func=cmd_gap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
