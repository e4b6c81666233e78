"""Self-tests of the benchmark: smoke runs of every workload, and the output checks.

    python -m pytest perfbench/test_perfbench.py -q

Smoke runs are in-process, one cycle each, with no set-up children, so the
whole file takes well under a minute.
"""

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(workload, trace, section, capsys):
    one_cycle = len(workloads.WORKLOADS[workload].kinds)
    run.run(workload, seed=3, seconds=0.0, trace=bool(trace), min_ops=one_cycle,
            setup_children=0)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared(section)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines)
    assert any(line.split()[:1] == ["fail_frac"] for line in lines)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_correct_output_passes_its_check(workload, lib):
    wl = workloads.WORKLOADS[workload]
    op = wl.make_op(lib, random.Random(5), wl.kinds[0])
    assert run.execute(op)[1]


@pytest.mark.parametrize("workload", ["factored-readout", "full-witness", "scrambled-simon"])
def test_wrong_mask_registers_as_failure(workload, lib):
    wl = workloads.WORKLOADS[workload]

    def wrong_mask_op(lib, rng, kind):
        op = wl.make_op(lib, rng, kind)
        return replace(op, expected=op.expected ^ 1)

    ops, executions, ok = run.measure(replace(wl, make_op=wrong_mask_op), lib,
                                      random.Random(5), 0.0, 1, lambda: 1e-3)
    assert len(ops) == len(wl.kinds) and ok.count(False) == len(ops)
    assert all(t is not None for t, _, _ in executions)  # the ops ran; the check failed


def test_wrong_sweep_values_register_as_failure(lib):
    wl = workloads.WORKLOADS["schedule-sweep"]
    op = wl.make_op(lib, random.Random(5), wl.kinds[0])
    values = op.expected
    assert not run.execute(replace(op, expected=values[:-1]))[1]
    assert not run.execute(replace(op, expected=(1.0,) + values[1:]))[1]


def test_inputs_follow_the_seed(lib):
    wl = workloads.WORKLOADS["schedule-sweep"]
    first = [wl.make_op(lib, random.Random(9), k).expected for k in wl.kinds]
    again = [wl.make_op(lib, random.Random(9), k).expected for k in wl.kinds]
    other = [wl.make_op(lib, random.Random(10), k).expected for k in wl.kinds]
    assert first == again != other


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "factored-readout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracing_overhead_compares_adjacent_cycles():
    # Cycles of two ops; the second pair runs 3x slower, tracing adds 10%.
    executions = [(t * slow * (1.1 if traced else 1.0), 1.0, traced)
                  for slow in (1.0, 3.0) for traced in (False, True) for t in (0.5, 1.5)]
    executions.append((0.4, 1.0, False))  # an unpaired cycle does not count
    assert run.tracing_overhead(executions, cycle=2) == pytest.approx(0.1)
    executions[2] = (None, 1.0, True)     # a pair with an op that raised does not count
    assert run.tracing_overhead(executions, cycle=2) == pytest.approx(0.1)
