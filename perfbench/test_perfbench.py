"""Tests of the benchmark itself; run with ``python -m pytest perfbench``.

Each workload runs once in trace mode (one untraced and one traced pass),
which yields both the end-to-end and the per-layer metrics.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run as bench
from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def record(request):
    return bench.run_benchmark(request.param, seed=3, seconds=0, trace=True)


def test_every_metric_is_emitted_with_its_unit(record):
    assert set(bench.PER_LAYER) - set(bench.RESULT_LAYER) == bench.SAMPLED_OR_QNNC_ONLY
    for traced, units in ((False, bench.END_TO_END), (True, bench.RESULT_LAYER)):
        result = bench.result_line({**record, "trace": traced})
        assert list(result["metrics"]) == list(units)
        for name, entry in result["metrics"].items():
            assert entry["unit"] == units[name]
            assert math.isfinite(entry["value"]), name
            if not traced:
                assert entry["value"] > 0, name


def test_output_checks_pass(record):
    assert record["failures"] == []
    assert record["warnings"] == []
    runs = sum(len(r) for p in record["passes"] for r in p["runs"].values())
    assert record["attempted"] == runs >= len(record["passes"]) * len(record["operations"])
    assert {p["digest"] for p in record["passes"]} == {record["digest"]}
    floors = WORKLOADS[record["workload"]].floors
    assert record["metrics"]["accuracy_qsvc"] >= floors.get("qsvc", 0.0)


def test_span_tree_is_well_formed(record):
    (spans,) = record["spans"]
    assert spans, "traced pass recorded no spans"
    for index, (name, parent, start, end, self_time) in enumerate(spans):
        assert start <= end
        assert self_time >= -1e-9, name
        if parent == -1:
            assert name.startswith("cli.")
        else:
            assert parent < index
            assert spans[parent][2] <= start and end <= spans[parent][3], name
    roots = sum(end - start for _, parent, start, end, _ in spans if parent == -1)
    assert math.isclose(sum(s[4] for s in spans), roots, rel_tol=1e-9)


def test_self_times_account_for_the_traced_pipeline(record):
    layer = record["layer_metrics"]
    self_times = sum(layer[k] for k in LAYER_METRICS if k.endswith("_s") and not k.startswith("trace."))
    assert math.isclose(self_times, layer["trace.pipeline_s"], rel_tol=1e-9)
    assert layer["trace.overhead_s"] == layer["trace.pipeline_s"] - record["metrics"]["pipeline_s"]
    untraced = [p for p in record["passes"] if not p["traced"]]
    stages = sum(layer[f"stage.{op}_s"] for op in record["operations"])
    assert len(untraced) == 1 and math.isclose(stages, untraced[0]["pipeline_s"], rel_tol=1e-9)


def test_tracing_leaves_the_package_unpatched(record):
    kernel, core = sys.modules["qtc.kernel"], sys.modules["qtc.qsim.core"]
    assert kernel.run is core.run
    assert not hasattr(kernel.gram, "__wrapped__")


def test_bypassed_layer_is_reported():
    workload = WORKLOADS["desk"]
    tracer = Tracer()
    tracer.begin("cli.kernel")
    tracer.end()
    missing = bench.missing_spans(workload, [tracer])
    assert "qsim.run" in missing and "kernel.gram" in missing
    assert "qsim.sample" not in missing


def test_command_prints_the_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload", "desk", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
