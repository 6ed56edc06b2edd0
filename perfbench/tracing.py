"""Spans recorded in the benchmark's own code, around its calls into the
program's public functions, with snapshots of the program's counters
taken at the same points.

A span's self time is its duration minus what its child spans cover and
minus the time the program's own counters attribute to a lower layer
while the span was open (gcc, cache reads and writes, pipeline passes,
cost analysis, pooled measurement). Spans stay in memory and are written
out when the run ends, as a Chrome trace (``chrome://tracing``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List

#: counter-derived sub-layers: (layer name, counter key), in the order
#: they are taken out of a span's own time
DERIVED = (
    ("codegen.gcc", "gcc_s"),
    ("cache.store", "store_s"),
    ("cache.lookup", "lookup_s"),
    ("autosched.rules", "rules_s"),
    ("pipeline.lower", "lower_s"),
    ("cost.analysis", "cost_s"),
    ("search.measure", "measure_s"),
)


def counters() -> Dict[str, float]:
    """One flat snapshot of the program's cumulative counters."""
    import repro
    from repro.runtime import metrics

    c = repro.compile_cache_stats()
    disk = c["disk"]
    rules = lower = 0.0
    runs = hits = 0
    for name, row in metrics.pipeline_stats().items():
        runs += row["runs"] - row["cache_hits"]
        hits += row["cache_hits"]
        if name.startswith("auto"):
            rules += row["time_s"]
        elif name != "cost_model":
            lower += row["time_s"]
    cost = metrics.cost_stats()
    pool = metrics.pool_stats()
    tuner = metrics.tuner_stats()
    return {
        "gcc_s": disk["gcc_time_s"], "gcc_runs": disk["gcc_runs"],
        "store_s": disk["store_time_s"], "lookup_s": disk["lookup_time_s"],
        "ir_hits": disk["ir_hits"], "native_hits": disk["native_hits"],
        "rules_s": rules, "lower_s": lower,
        "pass_runs": runs, "pass_hits": hits,
        "dep_misses": c["deps"]["misses"],
        "full_solves": c["omega"]["full_solves"],
        "cost_s": cost["time_s"], "cost_analyses": cost["analyses"],
        "measure_s": pool["measure_time_s"],
        "measured": tuner["measured"], "cost_pruned": tuner["cost_pruned"],
        "frontier_skips": tuner["frontier_skips"],
        "dedup_skips": tuner["dedup_skips"],
    }


def delta(after: Dict[str, float], before: Dict[str, float]):
    return {k: after[k] - before[k] for k in after}


class Tracer:
    """Span recorder; with ``enabled=False`` every method is a no-op and
    hot loops skip it behind one attribute test."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: [name, start_s, end_s, parent index, attrs]
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, snap: bool = False, **attrs):
        """A span around a coarse call; ``snap`` records the deltas of
        the program's counters across it."""
        if not self.enabled:
            yield
            return
        before = counters() if snap else None
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, attrs]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            if snap:
                d = delta(counters(), before)
                attrs["counters"] = {k: v for k, v in d.items() if v}

    def add(self, name: str, start: float, end: float, **attrs):
        """A leaf span from timestamps the caller already took."""
        self.spans.append([name, start, end,
                           self._stack[-1] if self._stack else -1, attrs])


def self_times(spans: List[list]) -> Dict[str, List[float]]:
    """layer -> [self seconds, span count] over one process's spans."""
    covered = [0.0] * len(spans)
    inner: List[Dict[str, float]] = [{} for _ in spans]
    for name, start, end, parent, attrs in spans:
        if parent >= 0:
            covered[parent] += end - start
            for k, v in attrs.get("counters", {}).items():
                inner[parent][k] = inner[parent].get(k, 0.0) + v
    out: Dict[str, List[float]] = {}

    def put(layer, secs, n):
        row = out.setdefault(layer, [0.0, 0])
        row[0] += secs
        row[1] += n

    for (name, start, end, _, attrs), cov, sub in zip(spans, covered,
                                                      inner):
        own = max(0.0, end - start - cov)
        # the counters moved by this span's own code, not its children's
        c = {k: v - sub.get(k, 0.0)
             for k, v in attrs.get("counters", {}).items()}
        # a disk hit's lookup is timed inside the hitting pass as well
        c["lower_s"] = c.get("lower_s", 0.0) - c.get("lookup_s", 0.0)
        derived = [(layer, max(0.0, c.get(key, 0.0)))
                   for layer, key in DERIVED]
        total = sum(s for _, s in derived)
        scale = min(1.0, own / total) if total > 0 else 0.0
        for layer, secs in derived:
            if secs > 0:
                put(layer, secs * scale, 0)
        put(name, own - total * scale, 1)
    return out


def table(per_process: List[List[list]], title: str) -> str:
    """The self-time-per-layer table over every process of a run."""
    agg: Dict[str, List[float]] = {}
    for spans in per_process:
        for layer, (secs, n) in self_times(spans).items():
            row = agg.setdefault(layer, [0.0, 0])
            row[0] += secs
            row[1] += n
    total = sum(r[0] for r in agg.values()) or 1.0
    lines = [f"self time per layer: {title}",
             f"  {'layer':34s} {'self_s':>10s} {'share':>7s} {'spans':>8s}"]
    for layer, (secs, n) in sorted(agg.items(), key=lambda kv: -kv[1][0]):
        lines.append(f"  {layer:34s} {secs:10.4f} {secs / total:7.1%} "
                     f"{int(n):8d}")
    lines.append(f"  {'total':34s} {total:10.4f}")
    return "\n".join(lines)


def write_chrome(path: str, per_process: List[List[list]],
                 names: List[str], limit: int = 200_000):
    """Write every process's spans as one Chrome trace (at most ``limit``
    events: leaf spans of the hot loops past that are dropped, and the
    file says how many)."""
    events, dropped = [], 0
    for pid, (spans, pname) in enumerate(zip(per_process, names)):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": pname}})
        for name, start, end, parent, attrs in spans:
            if len(events) >= limit:
                dropped += 1
                continue
            events.append({"name": name, "ph": "X", "pid": pid, "tid": 0,
                           "ts": start * 1e6, "dur": (end - start) * 1e6,
                           "args": attrs})
    with open(path, "w") as f:
        json.dump({"traceEvents": events,
                   "otherData": {"dropped_events": dropped}}, f)
