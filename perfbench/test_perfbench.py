"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q`` from the repository root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import tracer
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in expected:
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']}" in line
                   for line in lines[:-1]), m["name"]


def test_all_runs_every_workload_in_one_command():
    proc = bench("--workload", "all", "--seed", "4", "--seconds", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == len(WORKLOADS)
    assert set(result["metrics"]) == {f"{w}/{m['name']}" for w in WORKLOADS
                                      for m in SPEC["end_to_end"]}
    assert "fail_ratio" in proc.stdout


def test_workload_table_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _tiny_inputs(name: str, tmp_path: Path):
    import sspbounds

    workload = WORKLOADS[name]
    inputs = generate(sspbounds, workload, 5, tmp_path, tiny=True)
    ref, _ = reference.compute(workload, inputs.instance, inputs.values)
    return workload, inputs, ref


def test_corrupted_values_file_counts_as_failed(tmp_path):
    workload, inputs, ref = _tiny_inputs("grid-horizon", tmp_path)
    data = json.loads(inputs.values.read_text())
    data["values"][0] += 1.0
    inputs.values.write_text(json.dumps(data))
    samples = run.measure_end_to_end(workload, inputs, ref, tmp_path, seconds=0)
    assert len(samples) == 1 and samples[0].failure is not None


def test_wrong_value_in_solve_output_fails_the_check(tmp_path):
    workload, inputs, ref = _tiny_inputs("grid-pi", tmp_path)
    samples = run.measure_end_to_end(workload, inputs, ref, tmp_path, seconds=0)
    assert samples[0].failure is None
    output = tmp_path / "output.json"
    data = json.loads(output.read_text())
    data["values"][0] += 1e-3
    output.write_text(json.dumps(data))
    assert "exceeds its bound" in reference.check_output(ref, 0, output)
    assert reference.check_output(ref, 3, output) == "exit code 3"


def test_tracer_wraps_copied_bindings_and_reports_missing_names(monkeypatch):
    import numpy as np

    import sspbounds
    import sspbounds.bounds

    monkeypatch.setitem(tracer.TRACED, "dp", tracer.TRACED["dp"] + ("no_such_function",))
    problem = sspbounds.build_gridworld()
    values = np.zeros(problem.num_states)
    original = sspbounds.bounds.bellman_backup
    with tracer.Tracer() as t:
        sspbounds.bounds.bellman_backup(problem, values)
    assert sspbounds.bounds.bellman_backup is original
    assert t.missing == ["dp.no_such_function"]
    assert t.counts["dp.bellman_backup"] == 1 and t.counts["dp.action_values"] == 1
    outer, = (s for s in t.spans if s.name == "dp.bellman_backup")
    inner, = (s for s in t.spans if s.name == "dp.action_values")
    assert inner.parent == outer.ident
    assert tracer.self_times(t.spans)["dp.bellman_backup"] < outer.end - outer.start


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "grid-pi", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
