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
import os
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone
from functools import cache
from operator import attrgetter

import numpy as np

from . import __version__
from .errors import SimulatorError
from .evolution import assemble
from .hamiltonians import gap, gap_table, interpolated
from .measurement import RandomSource
from .protocols import (
    BUDGET_FAILURE_PROB,
    DEFAULT_TIME,
    MAX_STEPS,
    STEPS_PER_UNIT_TIME,
    RunConfig,
    SweepRow,
    _draw_mask,
    _oracle,
    branch_pair,
    resolve_config,
    run,
    run_simon,
    sweep,
)

SCHEMA_VERSION = "15"

SWEEP_COLUMNS = [f.name for f in fields(SweepRow)]


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


def _add_config_flags(parser: argparse.ArgumentParser, **n_flag) -> None:
    """The RunConfig flags that bv, simon and sweep share, and --out; ``n_flag`` completes --n."""
    parser.add_argument("--n", type=int, help="input register size", **n_flag)
    parser.add_argument("--a", type=_mask, default=None,
                        help="hidden mask (default: drawn from the seed)")
    parser.add_argument("--time", type=float, default=DEFAULT_TIME, dest="total_time",
                        help=f"annealing runtime T (default {DEFAULT_TIME:g})")
    parser.add_argument("--steps", type=int, default=None,
                        help=f"integrator steps (default {STEPS_PER_UNIT_TIME}*T)")
    parser.add_argument("--path", choices=("factored", "full"), default="factored")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default $ADIABATIC_SIM_SEED or 0)")
    parser.add_argument("--max-repeats", type=int, help="shot budget (default: enough that a run "
                        f"at row-bit probability q fails w.p. <= {BUDGET_FAILURE_PROB:g})")
    parser.add_argument("--out", default=None, help="write payload to a file")


def _fields(args: argparse.Namespace, problem: str) -> dict:
    """The RunConfig fields the run flags give, unresolved: a sweep draws a mask per trial."""
    return dict(
        problem=problem,
        n=args.n,
        a=args.a,
        total_time=args.total_time,
        steps=args.steps,
        path=args.path,
        seed=_seed(args),
        max_repeats=args.max_repeats,
        scramble_seed=getattr(args, "scramble_seed", None),
    )


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


def _emit_csv(header: list, rows, out_path) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buffer.getvalue(), out_path)


def cmd_bv(args: argparse.Namespace) -> int:
    cfg = resolve_config(RunConfig(**_fields(args, "bv")))
    report = run(cfg)
    _emit(json.dumps(_record(cfg, asdict(report)), indent=2) + "\n", args.out)
    return 0 if report.success else 2


def cmd_simon(args: argparse.Namespace) -> int:
    if args.compare_factored and args.path != "full":
        raise UsageError("--compare-factored needs --path full")
    cfg = resolve_config(RunConfig(**_fields(args, "simon")))
    finals = []
    report = run_simon(cfg, finals.append if args.compare_factored else None)
    results = asdict(report)
    if args.compare_factored:
        phi0, phi1 = branch_pair(cfg.total_time, cfg.steps)
        factored = assemble(_oracle(cfg, cfg.a), phi0, phi1)
        deviation = float(np.max(np.abs(finals[0].amps - factored.amps)))
        results["max_factored_deviation"] = deviation
    _emit(json.dumps(_record(cfg, results), indent=2) + "\n", args.out)
    return 0 if report.success else 2


def cmd_sweep(args: argparse.Namespace) -> int:
    cast = float if args.axis == "T" else int
    try:
        values = [cast(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --values entry: {exc}")
    rows = sweep(args.axis, values, _fields(args, args.problem), args.trials)
    _emit_csv(SWEEP_COLUMNS, map(attrgetter(*SWEEP_COLUMNS), rows), args.out)
    return 0


def cmd_gap(args: argparse.Namespace) -> int:
    seed = _seed(args)
    if not 3 <= args.grid <= MAX_STEPS:
        raise UsageError(f"--grid must be between 3 and {MAX_STEPS}")
    if args.two_level:
        table = [(s, gap(s)) for s in np.linspace(0.0, 1.0, args.grid).tolist()]
    else:
        if args.n is None:
            raise UsageError("--n is required unless --two-level is given")
        cfg = RunConfig(args.problem, args.n, args.a, path="full", seed=seed)
        table = gap_table(interpolated(_oracle(cfg, _draw_mask(cfg, RandomSource(seed)))), args.grid)
    _emit_csv(["s", "gap"], ([f"{s:.10g}", f"{value:.15g}"] for s, value in table), args.out)
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
    _add_config_flags(p_bv, required=True)
    p_bv.set_defaults(func=cmd_bv)

    p_simon = sub.add_parser("simon", help="run Simon's protocol")
    _add_config_flags(p_simon, required=True)
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
    _add_config_flags(p_sweep, default=4)
    p_sweep.add_argument("--scramble-seed", type=int, default=None)
    p_sweep.add_argument("--trials", type=int, default=100)
    p_sweep.set_defaults(func=cmd_sweep)

    p_gap = sub.add_parser("gap", help="scan the spectral gap along the schedule")
    p_gap.add_argument("--problem", choices=("bv", "simon"), default="bv")
    p_gap.add_argument("--n", type=int, default=None)
    p_gap.add_argument("--a", type=_mask, default=None)
    p_gap.add_argument("--grid", type=int, default=201)
    p_gap.add_argument("--two-level", action="store_true",
                       help="scan one decoupled branch instead of the register pair")
    p_gap.add_argument("--seed", type=int, default=None)
    p_gap.add_argument("--out", default=None)
    p_gap.set_defaults(func=cmd_gap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, SimulatorError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
