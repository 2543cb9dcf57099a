"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, trace, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.2"


def _run(workload, traced):
    args = run._parse(["--workload", workload, "--seconds", SECONDS, "--trace", str(traced)])
    return run.run(args, workloads.TINY)


def test_benchmark_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("traced", [0, 1])
def test_every_metric_prints_with_its_unit(workload, traced):
    result, info = _run(workload, traced)
    assert result["correct"], info
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if traced else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    if traced:
        assert info["absent"] == [] and info["reconciled_solves"] == info["solves"]
    json.dumps(result)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_and_untraced_outputs_match(workload):
    bench = workloads.WORKLOADS[workload]
    inputs = run._set_up(bench, 7, workloads.TINY)
    plain, traced = workloads.SolveLog(), workloads.SolveLog()
    run._run_round(bench, inputs, 0, plain)
    tracer = trace.Tracer()
    tracer.install()
    try:
        run._run_round(bench, inputs, 0, traced)
    finally:
        tracer.uninstall()
    assert plain.solves and workloads.same_outputs(plain, traced) == []
    assert tracer.mismatches == [] and tracer.reconciled == len(traced.solves)


def test_missed_layer_calls_fail_reconciliation():
    bench = workloads.WORKLOADS["tdbs-synthetic"]
    inputs = run._set_up(bench, 7, workloads.TINY)
    spans = tuple(s for s in trace.SPANS if s[0] != "feasibility.check_consistent")
    tracer = trace.Tracer(spans)
    tracer.install()
    try:
        run._run_round(bench, inputs, 0, workloads.SolveLog())
    finally:
        tracer.uninstall()
    assert any("feasibility_checks" in m for m in tracer.mismatches)


def test_renamed_helper_is_reported_absent():
    spans = trace.SPANS + (("waterfill.gone", "patrolgame.waterfill", "_no_such_helper"),)
    bench = workloads.WORKLOADS["hw-synthetic"]
    inputs = run._set_up(bench, 7, workloads.TINY)
    tracer = trace.Tracer(spans)
    tracer.install()
    try:
        run._run_round(bench, inputs, 0, workloads.SolveLog())
    finally:
        tracer.uninstall()
    assert tracer.absent == ["waterfill.gone"] and tracer.mismatches == []


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", "case-study", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
