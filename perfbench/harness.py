"""The run loop, set-up passes and metric arithmetic behind ``run.py``.

Imported only after ``run.py`` has put this checkout's ``src/`` on the path.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time

import spans
import workloads

# Set-up runs SETUP_UP_FRONT times before the first item and once more as
# the rounds cross each eighth of the run, so that its median samples the
# machine across the whole run rather than one moment of it. A workload
# whose set-up is short repeats each of these `setup_repeats` times.
SETUP_UP_FRONT = 3
SETUP_SPREAD = 8
TAIL_BEYOND = 10
MAX_FAILURES_SHOWN = 5
TRACE_DIR = ".perfbench"  # under the checkout root; listed in .gitignore


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


class Runner:
    """One caller, one item at a time, with a tally of failed items."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # time spent in items outside their timed part (see run_item)
        self.untimed = 0.0

    def run_item(self, tr, item_id: str, item) -> tuple[bool, float]:
        """Run and check one item: (passed, seconds taken). A workload whose
        run_item returns a time has timed the item itself; the rest of the
        item, a check, counts neither in its latency nor in the run's wall
        time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with tr.item(item_id):
                timed = self.workload.run_item(tr, item)
        except Exception as exc:  # a failed check or any error fails the item, not the run
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_SHOWN:
                self.failures.append(f"{item_id}: {type(exc).__name__}: {exc}")
            return False, 0.0
        took = time.perf_counter() - start
        if timed is None:
            return True, took
        self.untimed += took - timed
        return True, timed

    def rounds(self, tr, seconds: float | None = None, count: int | None = None,
               between=None) -> dict:
        """Whole rounds until they have taken `seconds`, or exactly `count`.
        The rounds cycle through the workload's first `rounds_per_pass`
        rounds, so each item runs once per pass, and its latency is the
        mean over its runs, spread across the whole run: the machine's speed
        changes for seconds to minutes at a time, and the mean averages it
        over every run of the item, as items_per_s does. `between` is called after
        the rounds that cross each eighth of `seconds`; its time is not part
        of the rounds' wall time."""
        per_pass = self.workload.rounds_per_pass
        cycle = [self.workload.rounds(r) for r in range(per_pass)]
        samples: dict[str, list[float]] = {}
        cells = self.workload.props.cells
        cells_before = sum(cells)
        busy = 0.0
        done = 0
        every = seconds / SETUP_SPREAD if seconds else None
        next_at = every
        while (count is None and busy < seconds) or (count is not None and done < count):
            r = done % per_pass
            start = time.perf_counter()
            untimed = self.untimed
            for i, item in enumerate(cycle[r]):
                item_id = f"r{r}.i{i}"
                ok, latency = self.run_item(tr, item_id, item)
                if ok:
                    samples.setdefault(item_id, []).append(latency)
            busy += time.perf_counter() - start - (self.untimed - untimed)
            done += 1
            if between is not None and next_at <= busy < seconds:
                between()
                next_at += every
        return {"rounds": done, "wall_s": busy,
                "completed": sum(len(runs) for runs in samples.values()),
                "latencies": [statistics.fmean(runs) for runs in samples.values()],
                "cells": sum(cells) - cells_before}


def setup_pass(workload, tr) -> float:
    """`import tesstopo` in a fresh interpreter, then building the inputs
    through the public constructors and warming up in-process."""
    with tr.item("setup"):
        imported = workloads.fresh_import_seconds(workload.root, tr)
        start = time.perf_counter()
        workload.prepare(tr)
        return imported + time.perf_counter() - start


def peak_rss_mb(workload_name: str) -> float:
    # cli items run in child processes; every other workload runs in this one
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(name: str, phase: dict, setups: list[float]) -> tuple[dict, dict]:
    lat = phase["latencies"] or [0.0]
    pct, tail_s = tail(lat)
    metrics = {
        "items_per_s": (phase["completed"] / phase["wall_s"], "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(name), "MB"),
    }
    detail = {"n_items": len(phase["latencies"]), "n_runs": phase["completed"],
              "tail_percentile": pct,
              "n_setup": len(setups), "rounds": phase["rounds"],
              "wall_s": phase["wall_s"],
              "cells_per_s": phase["cells"] / phase["wall_s"]}
    return metrics, detail


def scaling_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(build time) against log(cell count)."""
    if len({c for c, _ in points}) < 2:
        return 0.0
    xs = [math.log(c) for c, _ in points]
    ys = [math.log(t) for _, t in points]
    return statistics.linear_regression(xs, ys).slope


def per_layer(workload, untraced: dict, traced: dict, summary: dict) -> dict:
    metrics = {}
    for name, agg in summary["spans"].items():
        metrics[f"{name}.calls"] = (agg["calls"], "count")
        metrics[f"{name}.self_s"] = (agg["self_s"], "s")
        metrics[f"{name}.p50_us"] = (agg["p50_us"], "us")
        if name in spans.ERROR_SPANS:
            metrics[f"{name}.errors"] = (agg["errors"], "count")
    props = workload.props.report()
    sample_s = summary["spans"]["feasibility.sample_feasible"]["self_s"]
    builds = getattr(workload, "builds", [])
    build_cells = sum(c for c, _, _ in builds)
    untraced_rate = untraced["completed"] / untraced["wall_s"]
    traced_rate = traced["completed"] / traced["wall_s"]
    metrics.update({
        "feasibility.feasible_share": (props["feasible_share"], "ratio"),
        "feasibility.samples_per_s": (props["samples"] / sample_s if sample_s else 0.0, "1/s"),
        "scalar.pi2_share": (props["pi2_share"], "ratio"),
        "complexes.cells_per_s": (untraced["cells"] / untraced["wall_s"], "1/s"),
        "complexes.build_us_per_cell": (
            sum(t for _, t, _ in builds) / build_cells * 1e6 if build_cells else 0.0, "us"),
        "complexes.build_scaling_exponent": (
            scaling_exponent([(c, t) for c, t, cubic in builds if cubic]), "slope"),
        "trace.overhead_ratio": (traced_rate / untraced_rate if untraced_rate else 0.0, "ratio"),
        "trace.span_coverage": (summary["span_coverage"], "ratio"),
    })
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """One benchmark run; returns the report and the result objects."""
    workload = workloads.make(workload_name, root, seed)
    off = spans.NullTracer()
    runner = Runner(workload)
    repeats = workload.setup_repeats
    if trace:
        tracer = spans.Tracer()
        for _ in range(SETUP_UP_FRONT * repeats):
            setup_pass(workload, tracer)
        untraced = runner.rounds(off, seconds=seconds / 2)
        workload.props = workloads.Properties()
        # one pass, a fixed amount of work, so that span totals describe
        # the same work whatever the program's speed
        traced = runner.rounds(tracer, count=workload.rounds_per_pass)
        summary = spans.summarize(tracer)
        metrics = per_layer(workload, untraced, traced, summary)
        path = os.path.join(root, TRACE_DIR, f"spans-{workload_name}-seed{seed}.jsonl")
        spans.write(tracer, path)
        detail = {"rounds": untraced["rounds"], "traced_rounds": traced["rounds"],
                  "n_items": len(traced["latencies"]),
                  "item_s": summary["item_s"], "spans": len(tracer.records),
                  "spans_file": os.path.relpath(path, root)}
    else:
        setups = [setup_pass(workload, off) for _ in range(SETUP_UP_FRONT * repeats)]
        phase = runner.rounds(off, seconds=seconds, between=lambda: setups.extend(
            setup_pass(workload, off) for _ in range(repeats)))
        metrics, detail = end_to_end(workload_name, phase, setups)

    report = {"workload": workload_name, "seed": seed, "trace": int(trace), **detail,
              "failed_ratio": runner.failed / runner.attempted if runner.attempted else 1.0,
              "failures": runner.failures, "inputs": workload.props.report()}
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return {"report": report, "result": result}
