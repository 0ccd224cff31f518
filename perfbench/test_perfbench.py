"""The benchmark's own tests: a tiny run of every workload, both modes.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import calib  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
with open(os.path.join(ROOT, "perfbench", "ledger.json")) as _fh:
    LAYER_MAP = json.load(_fh)["per_layer"]["map"]


def _run(root, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in
                                      BENCHMARK["workloads"]])
def test_tiny_run_reports_every_metric_and_passes_verdict_checks(
        workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= inputs.TINY_OPS
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in declared:
        # every metric is printed by name with its unit for humans too
        assert f" {m['unit']}\n" in proc.stdout
    if trace:
        # every span mapped to this workload fired: a wrapper that stopped
        # firing would otherwise only move time into a remainder
        values = {name: m["value"] for name, m in result["metrics"].items()}
        spans = [name for name, (_e2e, on) in LAYER_MAP.items()
                 if on == workload and name.endswith((".calls", ".self_ms"))]
        assert spans
        assert [name for name in spans if values[name] <= 0] == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in
                                      BENCHMARK["workloads"]])
def test_layer_spans_account_for_the_operation_time(workload):
    # Full-size inputs: in tiny mode per-record detection is cheaper than
    # at the workload's size, so the tiny run says little about coverage.
    # Three seconds give at least two traced operations, so both
    # connections are in flight as in a real run.
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "3", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["metrics"]["layers.accounted_frac"]["value"] >= 0.9


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        list(run.PER_LAYER)


def test_inputs_are_a_function_of_the_seed(tmp_path):
    spec = inputs.SPECS["stream_buggy"]
    a = inputs.load(str(tmp_path / "a"), spec, 5, inputs.TINY_OPS, True)
    b = inputs.load(str(tmp_path / "b"), spec, 5, inputs.TINY_OPS, True)
    c = inputs.load(str(tmp_path / "c"), spec, 6, inputs.TINY_OPS, True)
    assert a == b
    assert a["items"] != c["items"]


def test_tail_percentile_leaves_ten_samples_beyond_it():
    assert inputs.tail_percentile(40) == 75
    assert inputs.tail_percentile(200) == 95
    assert inputs.tail_percentile(4) == 50
    for count in (20, 33, 40, 57, 200):
        pct = inputs.tail_percentile(count)
        values = list(range(count))
        beyond = [v for v in values if v > run.percentile(values, pct)]
        assert len(beyond) >= 10


def test_scaling_puts_times_on_the_reference_speed():
    # a time taken while the loop ran twice as slow as nominal is halved
    assert calib.factor(calib.REFERENCE_S) == 1.0
    assert calib.factor(calib.REFERENCE_S, 3 * calib.REFERENCE_S) == 0.5
    assert calib.sample() > 0


def test_without_the_program_it_fails_fast(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "stream_buggy", "--seed", "1",
                "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
