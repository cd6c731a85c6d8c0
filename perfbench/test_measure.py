"""Tests of the benchmark's arithmetic and of its metric declarations."""
import json
from pathlib import Path

import pytest

from measure import (Span, Tracer, kept_ratio, normalised, per_window, percentile, self_times,
                     tail_percentile)

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.mark.parametrize("n, want", [
    (0, None), (19, None),       # under 20 samples even p50 has < 10 beyond
    (20, 50.0), (39, 50.0),
    (40, 75.0), (99, 75.0),      # 99 samples leave 9 beyond p90
    (100, 90.0), (199, 90.0),
    (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    assert tail_percentile(n) == want


def test_percentile_interpolates_between_ranks():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 90) == pytest.approx(4.6)
    assert percentile(xs, 100) == 5.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("fwd", 0.0, 10.0, -1),
        Span("neck", 2.0, 8.0, 0),
        Span("gam", 3.0, 4.0, 1),
        Span("gam", 5.0, 7.0, 1),
        Span("head", 8.0, 9.5, 0),
    ]
    assert self_times(spans) == pytest.approx([2.5, 3.0, 1.0, 2.0, 1.5])


def test_tracer_nests_spans_and_windows_split_them():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    with tr.span("fwd"):          # 0..5
        with tr.span("fwd.neck"):  # 1..4
            with tr.span("fwd.gam"):  # 2..3
                pass
    tr.count("post.kept", 7)      # at 6
    with tr.span("bwd"):          # 7..8
        pass
    assert [s.parent for s in tr.spans] == [-1, 0, 1, -1]
    rows = per_window(tr, [(0.0, 6.5), (6.5, 10.0)])
    assert rows[0]["total"]["fwd"] == 5.0
    assert rows[0]["self"] == {"fwd": 2.0, "fwd.neck": 2.0, "fwd.gam": 1.0}
    assert rows[0]["events"] == {"post.kept": 7}
    assert rows[0]["covered"] == pytest.approx(5.0 / 6.5)
    assert rows[1]["self"] == {"bwd": 1.0} and rows[1]["events"] == {}


def test_kept_ratio_base_is_pooled_candidates():
    # two images: 10 candidates with 5 kept, 2 with 2 kept. The ratio is
    # 7 of 12, not the mean of the per-image ratios (0.75).
    assert kept_ratio(5 + 2, 10 + 2) == pytest.approx(7 / 12)
    assert kept_ratio(0, 0) == 0.0  # nothing passed the confidence cut
    with pytest.raises(ValueError):
        kept_ratio(3, 2)


def test_normalised_divides_by_the_reference_on_both_sides():
    # op 0 ran between references of 40 and 60 ms, op 1 between 60 and 20
    assert normalised([100.0, 80.0], [40.0, 60.0, 20.0], 50.0) == pytest.approx([100.0, 100.0])
    # a host twice as slow doubles op and reference times alike
    assert normalised([200.0], [80.0, 80.0], 40.0) == normalised([100.0], [40.0, 40.0], 40.0)
    with pytest.raises(ValueError):
        normalised([1.0, 2.0], [1.0, 1.0], 40.0)


def test_benchmark_json_is_well_formed():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
