"""Arithmetic of the benchmark: percentiles, spans with self time, ratios.

Nothing here imports numpy or lightdet, so the rules can be tested alone.
"""
from __future__ import annotations

import bisect
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

# candidate tail percentiles in per mille, highest first
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def percentile(samples: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    if not samples:
        raise ValueError("percentile of no samples")
    xs = sorted(samples)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile that has at least ten of n samples beyond it.

    None when even the median has fewer than ten samples above it.
    """
    for pm in TAIL_LADDER:
        if n * (1000 - pm) // 1000 >= MIN_BEYOND:
            return pm / 10.0
    return None


def summarize_ms(samples: list[float]) -> dict:
    """Median, the tail percentile the sample count supports, and the count."""
    out = {"n": len(samples), "p50": statistics.median(samples)}
    tail = tail_percentile(len(samples))
    if tail is not None and tail > 50.0:
        out[f"p{tail:g}"] = percentile(samples, tail)
    return out


def normalised(op_ms: list[float], ref_ms: list[float], nominal_ms: float) -> list[float]:
    """Each op's time scaled to a host on which the reference takes `nominal_ms`.

    `ref_ms[i]` was timed just before op i and `ref_ms[i + 1]` just after it;
    op i is divided by the mean of the two.
    """
    if len(ref_ms) != len(op_ms) + 1:
        raise ValueError(f"{len(op_ms)} ops need {len(op_ms) + 1} reference times, "
                         f"not {len(ref_ms)}")
    return [op * 2.0 * nominal_ms / (ref_ms[i] + ref_ms[i + 1]) for i, op in enumerate(op_ms)]


def kept_ratio(kept: int, candidates: int) -> float:
    """Boxes NMS kept over boxes that passed the confidence cut; 0 if none did.

    The base is the candidate count, summed over images before dividing, not
    the decoded anchor count and not a mean of per-image ratios.
    """
    if kept < 0 or candidates < 0 or kept > candidates:
        raise ValueError(f"kept {kept} of {candidates} candidates is impossible")
    return kept / candidates if candidates else 0.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    """In-memory spans and counted events, stamped with one clock."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.events: list[tuple[float, str, float]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), math.nan, parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = self.clock()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def count(self, name: str, value: float) -> None:
        self.events.append((self.clock(), name, value))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap each other and
    lie inside their parent.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def per_window(tracer: Tracer, windows: list[tuple[float, float]]) -> list[dict]:
    """Per op window: total and self seconds by span name, event sums by name,
    and the share of the window its root spans cover.

    A span or event belongs to the window its start falls in.
    """
    rows = [{"total": {}, "self": {}, "events": {}, "covered": 0.0} for _ in windows]
    starts = [w[0] for w in windows]

    def find(t: float) -> int:
        i = bisect.bisect_right(starts, t) - 1  # last window starting at or before t
        return i if i >= 0 and t < windows[i][1] else -1

    selfs = self_times(tracer.spans)
    for s, st in zip(tracer.spans, selfs):
        i = find(s.start)
        if i < 0:
            continue
        row = rows[i]
        row["total"][s.name] = row["total"].get(s.name, 0.0) + (s.end - s.start)
        row["self"][s.name] = row["self"].get(s.name, 0.0) + st
        if s.parent < 0:
            row["covered"] += s.end - s.start
    for t, name, value in tracer.events:
        i = find(t)
        if i >= 0:
            ev = rows[i]["events"]
            ev[name] = ev.get(name, 0.0) + value
    for row, (a, b) in zip(rows, windows):
        row["covered"] /= (b - a)
    return rows
