"""The benchmark's four workloads: seeded inputs, the timed call and its output check.

Each workload is a fixed cycle of op kinds.  The workload seed draws every
input of an op (masks, run seeds, T values, scramble seeds) but never the
kinds, so runs with different seeds load the layers alike.  The kinds are
weighted so that p50 and p90 fall inside one kind's latency band rather than
on a boundary between two.

An op is one ``run_bv``/``run_simon`` call, or one ``cli.main(["sweep", ...])``
invocation, and is executed once.  Library entry points are looked up on
their module at call time, so the tracing wrappers in ``spans.py`` see every
call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Hashable

# Full-path fidelity must match the factored closed form this closely.
FIDELITY_TOL = 1e-8

SWEEP_N = 4
SWEEP_STEPS = 5000
SWEEP_VALUES = 3
SWEEP_TRIALS = 4
SWEEP_T_RANGE = (20.0, 80.0)
FULL_T_RANGE = (8.0, 12.0)


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: ``call`` is timed, ``check`` is not."""

    kind: tuple
    runs: int                                       # protocol runs the op performs
    call: Callable[[], object]
    check: Callable[[object, Hashable], None]       # raises CheckFailed
    expected: Hashable                              # generated mask, or sweep values


@dataclass(frozen=True)
class Workload:
    kinds: tuple                                    # one cycle of op kinds
    make_op: Callable[[SimpleNamespace, random.Random, tuple], Op]

    def warmup_kinds(self) -> list:
        """The first kind of each problem: one warm-up op fills each branch cache."""
        first: dict = {}
        for kind in self.kinds:
            first.setdefault(kind[0], kind)
        return list(first.values())


def check_mask(report, a: int) -> None:
    if not report.success or report.recovered_a != a:
        raise CheckFailed(f"recovered mask {report.recovered_a} != generated mask {a}")


def _run_protocol(lib: SimpleNamespace, cfg):
    run = lib.protocols.run_bv if cfg.problem == "bv" else lib.protocols.run_simon
    return run(cfg)


def _protocol_op(lib: SimpleNamespace, rng: random.Random, kind: tuple, **fields) -> Op:
    problem, n = kind[0], kind[1]
    a = rng.randrange(1, 1 << n)
    cfg = lib.protocols.RunConfig(problem, n, a=a, seed=rng.getrandbits(63), **fields)
    return Op(kind, 1, lambda: _run_protocol(lib, cfg), check_mask, a)


def factored_op(lib: SimpleNamespace, rng: random.Random, kind: tuple) -> Op:
    """Default schedule (T=50, 5000 steps): the branch cache is warm after set-up."""
    return _protocol_op(lib, rng, kind)


def scrambled_op(lib: SimpleNamespace, rng: random.Random, kind: tuple) -> Op:
    return _protocol_op(lib, rng, kind, scramble_seed=rng.getrandbits(31))


def full_op(lib: SimpleNamespace, rng: random.Random, kind: tuple) -> Op:
    """Dense path; the check also compares its fidelity with the factored path's."""
    total_time = rng.uniform(*FULL_T_RANGE)
    op = _protocol_op(lib, rng, kind, path="full", total_time=total_time, steps=kind[2])

    def check(report, a):
        check_mask(report, a)
        cfg = lib.protocols.RunConfig(
            kind[0], kind[1], a=a, total_time=total_time, steps=kind[2]
        )
        factored = _run_protocol(lib, cfg).per_run_fidelity
        if not abs(report.per_run_fidelity - factored) <= FIDELITY_TOL:
            raise CheckFailed(
                f"full fidelity {report.per_run_fidelity!r} != factored {factored!r}"
            )

    return replace(op, check=check)


def sweep_op(lib: SimpleNamespace, rng: random.Random, kind: tuple) -> Op:
    """``sweep --axis T`` over fresh T values, so every value misses the branch cache."""
    values = tuple(rng.uniform(*SWEEP_T_RANGE) for _ in range(SWEEP_VALUES))
    argv = [
        "sweep", "--axis", "T", "--values", ",".join(map(repr, values)),
        "--problem", kind[0], "--n", str(SWEEP_N), "--steps", str(SWEEP_STEPS),
        "--trials", str(SWEEP_TRIALS), "--seed", str(rng.getrandbits(63)),
    ]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(argv)
        return code, out.getvalue()

    def check(result, values):
        code, text = result
        if code != 0:
            raise CheckFailed(f"sweep exited with {code}")
        header, *rows = csv.reader(io.StringIO(text))
        if header != lib.cli.SWEEP_COLUMNS:
            raise CheckFailed(f"sweep header {header}")
        if len(rows) != len(values):
            raise CheckFailed(f"{len(rows)} sweep rows for {len(values)} values")
        for row, value in zip(rows, values):
            record = dict(zip(header, row))
            if float(record["axis_value"]) != value or int(record["trials"]) != SWEEP_TRIALS:
                raise CheckFailed(f"sweep row {row} does not match T={value!r}")
            if float(record["success_rate"]) != 1.0:
                raise CheckFailed(f"sweep row {row}: a trial missed the mask")

    return Op(kind, SWEEP_VALUES * SWEEP_TRIALS, call, check, values)


WORKLOADS = {
    # p50 in the Simon n=15 band, p90 in the Simon n=16 band.
    "factored-readout": Workload(
        (("bv", 16), ("bv", 17), ("simon", 14), ("simon", 15), ("simon", 16)), factored_op
    ),
    # The two kinds cost the same: the 5000-step branch integrations dominate.
    "schedule-sweep": Workload((("bv", SWEEP_N), ("simon", SWEEP_N)), sweep_op),
    # (problem, n, steps): 64- and 128-dimensional registers, about 0.1 s an op.
    "full-witness": Workload(
        (("bv", 5, 300), ("bv", 6, 60), ("simon", 4, 45)), full_op
    ),
    # p50 in the n=15 band, p90 in the n=16 band.
    "scrambled-simon": Workload(
        (("simon", 14), ("simon", 14), ("simon", 15), ("simon", 15), ("simon", 16)),
        scrambled_op,
    ),
}
