"""Tests of the benchmark itself: smallest-size runs of every workload, and
the output checks that decide whether an op failed.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import qregames  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_FUNCTIONS, per_layer_metric_units  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _printed_metrics(text: str) -> tuple[dict, dict]:
    """(metrics printed as 'name value unit' lines, the final JSON object)."""
    lines = text.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            printed[parts[0]] = parts[2]
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)], smoke=True) == 0
    printed, result = _printed_metrics(capsys.readouterr().out)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    assert printed == expected
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        for name in LAYER_FUNCTIONS:
            module, attr = name.split(".")
            assert not hasattr(getattr(sys.modules[f"qregames.{module}"], attr), "__wrapped__")
            assert not hasattr(getattr(qregames, attr), "__wrapped__")


def test_benchmark_json_names_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_benchmark_json_declares_every_per_layer_metric():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_metric_units()
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


def _with_output(op, transform):
    """The same op, with its output altered before the checks see it."""
    return dataclasses.replace(op, run=lambda wrap: transform(op.run(wrap)))


def _perturb(x):
    x = np.array(x, dtype=float)
    x[:2] = x[:2] + np.array([1e-3, -1e-3])
    return x


def test_solve_op_with_perturbed_x_fails():
    op = workloads.build_solve_scale(5, smoke=True)[0]
    assert not run.run_op(op, run.untraced).failed
    bad = _with_output(op, lambda out: (dataclasses.replace(out[0], x=_perturb(out[0].x)),) + out[1:])
    record = run.run_op(bad, run.untraced)
    assert record.failed and "fixed point" in record.problems[0]


def test_design_ops_with_perturbed_x_fail():
    for op in workloads.build_paper_sweeps(0, smoke=True):
        assert not run.run_op(op, run.untraced).failed
        bad = _with_output(op, lambda out: dataclasses.replace(out, x=_perturb(out.x)))
        assert run.run_op(bad, run.untraced).failed


def test_design_ops_with_infeasible_c_fail():
    ops = workloads.build_paper_sweeps(0, smoke=True) + workloads.build_mindesign_scale(0, smoke=True)
    for op in ops:
        negated = _with_output(op, lambda out: dataclasses.replace(out, C=-out.C))
        assert run.run_op(negated, run.untraced).failed
    # Certified but outside the Frobenius ball of the projected-gradient op.
    op = ops[1]
    rho = float(op.label.split("rho=")[1])
    outside = _with_output(op, lambda out: dataclasses.replace(
        out, C=out.C * (2.0 * rho / np.linalg.norm(out.C))))
    record = run.run_op(outside, run.untraced)
    assert record.failed and any("feasible set" in p for p in record.problems)


def test_op_that_raises_counts_as_failed():
    op = workloads.build_solve_scale(5, smoke=True)[0]

    def boom(wrap):
        raise qregames.NonFiniteInput("injected")

    records = run.run_pass([dataclasses.replace(op, run=boom), op])
    assert [r.failed for r in records] == [True, False]


def test_long_rows_run_in_the_traced_run_only():
    ops = workloads.build_paper_sweeps(0)
    assert len(ops) == 26
    assert {op.label for op in ops if op.traced_only} == workloads.LONG_ROWS
    assert len(workloads.LONG_ROWS) == 8
