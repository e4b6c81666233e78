"""In-memory span tracing of adiabatic_sim's layer entry points, from outside the library.

Each wrapper replaces an entry point where its calling module looks it up
(``protocols.evolve_two_level``, not ``evolution.evolve_two_level``), so the
library itself runs unmodified.  A span is (name, start, end, parent, op id);
self time is a span's duration minus the durations of its child spans, so
the self times of one op's spans sum to its root span.  An entry point that
the library no longer has is skipped and reports 0 calls.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (span name, module whose namespace the caller looks the entry point up in, attribute)
WRAP_POINTS = (
    ("cli.main", "cli", "main"),
    ("protocols.sweep", "cli", "sweep"),
    ("protocols.run", "protocols", "run_bv"),
    ("protocols.run", "protocols", "run_simon"),
    ("protocols.branch_pair", "protocols", "branch_pair"),
    ("evolution.evolve_two_level", "protocols", "evolve_two_level"),
    ("evolution.evolve_full", "protocols", "evolve_full"),
    ("evolution.assemble", "protocols", "assemble_bv"),
    ("evolution.assemble", "protocols", "assemble_simon"),
    ("hamiltonians.interpolated", "protocols", "bv_interpolated"),
    ("hamiltonians.interpolated", "protocols", "simon_interpolated"),
    ("oracles.simon_build", "protocols", "simon_build"),
    ("oracles.simon_eval_all", "measurement", "simon_eval_all"),
    ("oracles.simon_eval_all", "evolution", "simon_eval_all"),
    ("oracles.simon_eval_all", "hamiltonians", "simon_eval_all"),
    ("measurement.bv_readout", "protocols", "bv_readout"),
    ("measurement.simon_sample", "protocols", "simon_sample"),
    ("measurement.simon_sample_factored", "protocols", "simon_sample_factored"),
    ("measurement.simon_factored_x_probs", "measurement", "simon_factored_x_probs"),
    ("measurement.measure_x", "measurement", "measure_x"),
    ("measurement.measure_z", "measurement", "measure_z"),
    ("qstate.fwht_subsystem", "measurement", "fwht_subsystem"),
    ("gf2.rank", "protocols", "rank"),
    ("gf2.rank", "gf2", "rank"),
    ("gf2.recover_mask", "protocols", "recover_mask"),
    ("gf2.nullspace", "gf2", "nullspace"),
)

MODULES = ("qstate", "oracles", "hamiltonians", "evolution", "measurement", "gf2", "protocols", "cli")


def _count_run(counts: Counter, args, report) -> None:
    cfg = args[0]
    if cfg.problem == "simon" and report.rows_collected:
        counts["simon_rows.needed"] += cfg.n - 1
        counts["simon_rows.collected"] += report.rows_collected


# Work counted at the span boundary, from arguments and results.  Byte counts
# are computed from array shapes, not measured.
COUNTERS = {
    "evolution.evolve_two_level": lambda c, args, r: c.update(two_level_steps=args[1].steps),
    "evolution.evolve_full": lambda c, args, r: c.update(full_steps=args[2].steps),
    "evolution.assemble": lambda c, args, r: c.update(assemble_bytes=r.amps.nbytes),
    "hamiltonians.interpolated": lambda c, args, r: c.update(
        interpolated_bytes=r.problem.nbytes + r.driver.nbytes
    ),
    "measurement.bv_readout": lambda c, args, r: c.update(
        bv_shots=1, bv_useful_shots=int(not r.restart)
    ),
    "protocols.run": _count_run,
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent, op, child_seconds]."""

    def __init__(self, modules: dict):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._op = -1
        self._patches = []
        for name, module, attr in WRAP_POINTS:
            target = modules[module]
            fn = getattr(target, attr, None)
            if fn is not None:
                self._patches.append((target, attr, fn, self._wrap(name, fn)))

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self._op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[2] - span[1]
            if count is not None:
                try:
                    count(counts, args, result)
                except (AttributeError, IndexError, TypeError):
                    counts["counter_errors"] += 1  # signature changed: the count reads 0
            return result

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Trace the calls made inside the block as op ``op_id``."""
        self._op = op_id
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)
        try:
            yield
        finally:
            for target, attr, fn, _ in self._patches:
                setattr(target, attr, fn)

    def layer_metrics(self, ops: int, overhead_frac: float) -> dict:
        """Per-layer metrics per traced op: {name: (value, unit)}."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        module_s: Counter = Counter()
        root_s = 0.0
        for name, start, end, parent, _, child in self.spans:
            calls[name] += 1
            own = end - start - child
            self_s[name] += own
            module_s[name.split(".", 1)[0]] += own
            if parent < 0:
                root_s += end - start
        c = self.counts
        per_op = 1.0 / max(ops, 1)

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}

        def put(name, value, unit):
            m[name] = (value, unit)

        def calls_and_self(name, with_calls=True):
            if with_calls:
                put(f"{name}.calls", calls[name] * per_op, "count/op")
            put(f"{name}.self_ms", self_s[name] * 1e3 * per_op, "ms/op")

        calls_and_self("evolution.evolve_two_level")
        put("evolution.evolve_two_level.steps_per_s",
            ratio(c["two_level_steps"], self_s["evolution.evolve_two_level"]), "1/s")
        calls_and_self("evolution.assemble")
        put("evolution.assemble.bytes_computed", c["assemble_bytes"] * per_op, "bytes/op")
        calls_and_self("qstate.fwht_subsystem")
        calls_and_self("measurement.bv_readout")
        put("measurement.bv_readout.useful_frac", ratio(c["bv_useful_shots"], c["bv_shots"]), "frac")
        calls_and_self("measurement.simon_sample_factored")
        calls_and_self("measurement.simon_factored_x_probs", with_calls=False)
        calls_and_self("oracles.simon_eval_all")
        calls_and_self("oracles.simon_build", with_calls=False)
        put("measurement.simon_rows.useful_frac",
            ratio(c["simon_rows.needed"], c["simon_rows.collected"]), "frac")
        calls_and_self("gf2.rank")
        calls_and_self("gf2.recover_mask", with_calls=False)
        calls_and_self("hamiltonians.interpolated")
        put("hamiltonians.interpolated.bytes_computed", c["interpolated_bytes"] * per_op, "bytes/op")
        calls_and_self("evolution.evolve_full")
        put("evolution.evolve_full.steps_per_s",
            ratio(c["full_steps"], self_s["evolution.evolve_full"]), "1/s")
        calls_and_self("measurement.simon_sample", with_calls=False)
        calls_and_self("measurement.measure_x", with_calls=False)
        branch_calls = calls["protocols.branch_pair"]
        put("protocols.branch_pair.calls", branch_calls * per_op, "count/op")
        put("protocols.branch_pair.hit_frac",
            ratio(branch_calls - calls["evolution.evolve_two_level"] / 2, branch_calls), "frac")
        calls_and_self("protocols.run", with_calls=False)
        calls_and_self("cli.main", with_calls=False)
        for module in MODULES:
            put(f"module.{module}.self_ms", module_s[module] * 1e3 * per_op, "ms/op")
        put("trace.op_ms", root_s * 1e3 * per_op, "ms/op")
        put("trace.overhead_frac", overhead_frac, "frac")
        return m

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op, self seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, op, child in self.spans:
                handle.write(json.dumps([name, start, end, parent, op, end - start - child]) + "\n")
