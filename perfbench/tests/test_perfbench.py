"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.load_program()

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_named_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for spec in expected:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    assert report["failed_ratio"] == 0
    if trace:
        with open(os.path.join(ROOT, report["spans_file"]), encoding="utf-8") as fh:
            first = json.loads(fh.readline())
        assert set(first) == {"name", "start", "end", "parent", "item", "error"}


def test_names_in_benchmark_json_are_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def corrupt_once(monkeypatch, owner, attr: str, change):
    """Replace owner.attr by a wrapper that alters its first result only."""
    real = getattr(owner, attr)
    calls = []

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(1)
        return change(out) if len(calls) == 1 else out

    monkeypatch.setattr(owner, attr, wrapper)


CORRUPTIONS = {
    "sweep-rational": (workloads.tesstopo, "check_identities",
                       lambda res: {**res, "euler_intensities": 1}),
    "sweep-pi2": (workloads.tesstopo, "classify",
                  lambda rep: dataclasses.replace(rep, feasible=not rep.feasible)),
    "build-measure": (workloads, "validate",
                      lambda rep: dataclasses.replace(rep, ok=False)),
    "cli": (workloads.cli, "render_json", lambda text: text + " "),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_corrupted_result_is_one_failed_item(workload, monkeypatch):
    runner = harness.Runner(workloads.make(workload, ROOT, 5))
    runner.workload.prepare(spans.NullTracer())
    owner, attr, change = CORRUPTIONS[workload]
    corrupt_once(monkeypatch, owner, attr, change)
    runner.rounds(spans.NullTracer(), count=1)
    assert runner.failed == 1
    assert runner.failed / runner.attempted > 0
    assert len(runner.failures) == 1


def test_self_time_subtracts_direct_children():
    tr = spans.Tracer()
    with tr.item("x"):
        with tr.span("params.derive"):
            with tr.span("scalar.arith"):
                sum(range(20000))
            sum(range(20000))
    records = tr.records
    outer = records[1][2] - records[1][1]
    inner = records[2][2] - records[2][1]
    summary = spans.summarize(tr)["spans"]
    assert summary["params.derive"]["self_s"] == pytest.approx(outer - inner)
    assert summary["scalar.arith"]["self_s"] == pytest.approx(inner)
    assert summary["params.derive"]["calls"] == 1


def test_typed_errors_are_counted_on_their_span():
    tr = spans.Tracer()
    with pytest.raises(workloads.tesstopo.InfeasibleParametersError):
        with tr.item("x"), tr.span("feasibility.intervals"):
            workloads.tesstopo.ridge_rate_interval(4, 3, 3)
    assert spans.summarize(tr)["spans"]["feasibility.intervals"]["errors"] == 1


def test_an_item_that_times_itself_leaves_its_checks_untimed():
    class SelfTimed:
        props = workloads.Properties()
        rounds_per_pass = 1

        def rounds(self, index):
            return [0, 0]

        def run_item(self, tr, item):
            time.sleep(0.02)
            return 0.001

    phase = harness.Runner(SelfTimed()).rounds(spans.NullTracer(), count=1)
    assert phase["latencies"] == [0.001, 0.001]
    assert phase["completed"] == 2
    assert phase["wall_s"] < 0.02


def test_latency_is_the_mean_over_passes():
    class Varying:
        props = workloads.Properties()
        rounds_per_pass = 2

        def __init__(self):
            self.times = iter([0.5, 0.1, 0.2, 0.4, 0.3, 0.9])

        def rounds(self, index):
            return [index]

        def run_item(self, tr, item):
            return next(self.times)

    phase = harness.Runner(Varying()).rounds(spans.NullTracer(), count=6)
    assert sorted(phase["latencies"]) == pytest.approx([1.0 / 3, 1.4 / 3])
    assert phase["completed"] == 6


def test_tail_keeps_ten_samples_beyond():
    pct, value = harness.tail([float(i) for i in range(100)])
    assert (pct, value) == (90.0, 89.0)
    assert harness.tail([1.0, 2.0]) == (100.0, 2.0)


def test_same_seed_gives_same_inputs():
    from inputs import build_round, cli_round, sweep_round
    assert sweep_round("sweep-rational", 4, 2) == sweep_round("sweep-rational", 4, 2)
    assert build_round(4, 1) == build_round(4, 1)
    assert cli_round(4, 0) == cli_round(4, 0)
    assert cli_round(4, 0) != cli_round(5, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
