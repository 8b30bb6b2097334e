"""Self-time arithmetic and the percentile sample rule of the traced run.

    python3 -m pytest perfbench/tests
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import SpanRecorder, covered, layer_self_times, percentile, self_times  # noqa: E402


def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "r"}


def test_covered_merges_overlapping_intervals():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert covered([]) == 0.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        span("cli.train", 0.0, 10.0),            # 0
        span("objective.train", 1.0, 9.0, 0),     # 1
        span("nets.emit", 2.0, 4.0, 1),           # 2
        span("autodiff.backward", 5.0, 8.0, 1),   # 3
        span("nets.emit", 6.0, 7.0, 3),           # 4, a grandchild of 1
    ]
    assert self_times(spans) == pytest.approx([2.0, 3.0, 2.0, 2.0, 1.0])


def test_layer_self_times_plus_remainder_sum_to_wall():
    spans = [
        span("cli.train", 1.0, 9.0),
        span("objective.train", 2.0, 8.0, 0),
        span("nets.emit", 3.0, 4.0, 1),
        span("nets.gru_advance", 5.0, 7.0, 1),
        span("data.load_csv", 9.5, 10.0),
    ]
    per_layer, remainder = layer_self_times(spans, wall=12.0)
    assert per_layer == pytest.approx({"cli": 2.0, "objective": 3.0, "nets": 3.0, "data": 0.5})
    assert remainder == pytest.approx(12.0 - 8.0 - 0.5)
    assert sum(per_layer.values()) + remainder == pytest.approx(12.0)


def test_recorder_links_parents_and_keeps_counters():
    rec = SpanRecorder("cmd0")
    inner = rec.wrap("nets.emit", lambda x: x * 2, lambda a, k, r: {"rows": r})
    outer = rec.wrap("inference.generate", lambda x: inner(x) + inner(x))
    assert outer(3) == 12
    names = [s["name"] for s in rec.spans]
    assert names == ["inference.generate", "nets.emit", "nets.emit"]
    assert [s["parent"] for s in rec.spans] == [None, 0, 0]
    assert rec.spans[1]["rows"] == 6
    assert all(s["run"] == "cmd0" and s["end"] >= s["start"] for s in rec.spans)


def test_recorder_closes_span_when_call_raises():
    rec = SpanRecorder("cmd0")

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("data.load_csv", boom)()
    after = rec.wrap("data.save_csv", lambda: None)
    after()
    assert rec.spans[1]["parent"] is None


@pytest.mark.parametrize("q, n_needed", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond_it(q, n_needed):
    assert percentile(list(range(n_needed - 1)), q) is None
    assert percentile(list(range(n_needed)), q) is not None


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
