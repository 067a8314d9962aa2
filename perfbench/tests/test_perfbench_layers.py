"""Self-time arithmetic and the tracing-overhead report, on synthetic spans."""

import pytest

from layers import overhead_frac, self_time_by_name, self_times
from repro.telemetry import Span


def span(name, start, end, kind="stage", pid=1, tid=0):
    return Span(name=name, kind=kind, start=float(start), end=float(end),
                pid=pid, tid=tid)


def test_self_time_subtracts_children_not_grandchildren():
    spans = [span("step", 0, 10, "step"), span("sampling", 1, 4),
             span("transition", 2, 3, "model"), span("resample", 5, 6)]
    assert self_times(spans) == [10 - 3 - 1, 3 - 1, 1, 1]


def test_overlapping_children_are_counted_once():
    # The second child starts inside the first and ends after it, so both
    # are children of the parent and their union (1..6) is covered.
    spans = [span("parent", 0, 10), span("a", 1, 5, "model"),
             span("b", 3, 6, "model")]
    assert self_times(spans)[0] == 10 - 5


def test_child_sharing_its_parents_start():
    spans = [span("child", 0, 4, "model"), span("parent", 0, 10)]
    assert self_times(spans) == [4, 6]


def test_spans_on_other_tracks_are_not_children():
    spans = [span("worker", 0, 10, pid=1), span("other", 2, 3, pid=2),
             span("thread", 4, 5, tid=1)]
    assert self_times(spans) == [10, 1, 1]


def test_self_time_by_name_sums_chosen_kinds():
    spans = [span("sampling", 0, 10), span("transition", 1, 4, "model"),
             span("sampling", 20, 25), span("step", 0, 30, "step")]
    assert self_time_by_name(spans, kinds=("stage",)) == {"sampling": 7 + 5}


def test_overhead_frac():
    assert overhead_frac(2.0, 2.5) == pytest.approx(0.25)
    assert overhead_frac(2.0, 2.0) == 0.0
