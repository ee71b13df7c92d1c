"""Spans the benchmark records around its own calls into tesstopo.

A span has a name, a start and an end time, a parent (the span that was open
when it started) and the id of the item it belongs to. Spans stay in memory
until the run ends, when they are summarised and written out as JSON lines.
A span's self time is its duration
minus the durations of its direct children; children never overlap, because
one caller runs everything in sequence.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from tesstopo.errors import TesstopoError

# Every span name the benchmark records, grouped by the module it calls into.
SPANS = (
    "scalar.arith", "scalar.compare", "scalar.evaluate", "scalar.text",
    "params.create", "params.derive", "params.check_identities",
    "feasibility.classify", "feasibility.intervals", "feasibility.regions",
    "feasibility.sample_feasible",
    "transforms.mixture", "transforms.central_point",
    "catalog.get",
    "io.encode",
    "complexes.generate", "complexes.convex_hull", "complexes.build_complex",
    "complexes.measure", "complexes.validate",
    "cli.process", "cli.startup", "cli.main",
)
# Spans around calls that can raise one of the package's typed errors.
ERROR_SPANS = (
    "params.create", "params.derive", "feasibility.intervals",
    "feasibility.regions", "transforms.mixture", "transforms.central_point",
    "catalog.get", "complexes.generate", "complexes.build_complex",
)
ITEM = "item"
SETUP = "setup"


class _Off:
    """Context manager that records nothing."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_OFF = _Off()


class NullTracer:
    """Tracing switched off: spans cost one method call and record nothing."""

    enabled = False

    def span(self, name: str) -> _Off:
        return _OFF

    def item(self, item_id: str) -> _Off:
        return _OFF


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        self.index = len(tr.records)
        # [name, start, end, parent, item, error]
        tr.records.append([self.name, time.perf_counter(), 0.0, parent,
                           tr.current_item, False])
        tr.stack.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        rec = tr.records[self.index]
        rec[2] = time.perf_counter()
        rec[5] = exc_type is not None and issubclass(exc_type, TesstopoError)
        tr.stack.pop()
        if rec[0] in (ITEM, SETUP):
            tr.current_item = None
        return False


class Tracer:
    """Keeps every span in memory until :func:`summarize` reads them."""

    enabled = True

    def __init__(self):
        self.records: list[list] = []
        self.stack: list[int] = []
        self.current_item: str | None = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def item(self, item_id: str) -> _Span:
        """Root span of one item (or of one set-up pass, id ``setup``)."""
        self.current_item = item_id
        return _Span(self, SETUP if item_id == SETUP else ITEM)


def summarize(tracer: Tracer) -> dict:
    """Per-span-name calls, self time, median duration and typed errors,
    plus the share of item wall time that layer spans account for."""
    records = tracer.records
    child_time = [0.0] * len(records)
    for rec in records:
        if rec[3] is not None:
            child_time[rec[3]] += rec[2] - rec[1]
    by_name: dict[str, dict] = {
        name: {"calls": 0, "self_s": 0.0, "durations": [], "errors": 0}
        for name in SPANS}
    item_s = layer_self_in_items = 0.0
    for i, (name, start, end, parent, item, error) in enumerate(records):
        if name == ITEM:
            item_s += end - start
            continue
        if name == SETUP:
            continue
        agg = by_name[name]
        own = end - start - child_time[i]
        agg["calls"] += 1
        agg["self_s"] += own
        agg["durations"].append(end - start)
        agg["errors"] += error
        if item is not None and item != SETUP:
            layer_self_in_items += own
    out = {}
    for name, agg in by_name.items():
        out[name] = {
            "calls": agg["calls"],
            "self_s": agg["self_s"],
            "p50_us": statistics.median(agg["durations"]) * 1e6 if agg["durations"] else 0.0,
            "errors": agg["errors"],
        }
    coverage = layer_self_in_items / item_s if item_s else 0.0
    return {"spans": out, "item_s": item_s, "span_coverage": coverage}


def write(tracer: Tracer, path: str) -> None:
    """All spans as JSON lines: name, start, end, parent index, item, error."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    keys = ("name", "start", "end", "parent", "item", "error")
    with open(path, "w", encoding="utf-8") as fh:
        for rec in tracer.records:
            fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
