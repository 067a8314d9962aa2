"""Tests for the telemetry spine: spans, counters, wire format, warn-once."""

import warnings

import pytest

from repro.telemetry import (
    Span,
    Tracer,
    reset_hook_error_warnings,
    run_metadata,
    spans_from_wire,
    spans_to_wire,
    warn_hook_error_once,
)


class FakeClock:
    """Deterministic clock: each call advances by one tick."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


def make_tracer(enabled=True):
    return Tracer(clock=FakeClock(), enabled=enabled, pid=7, tid=0)


class TestSpanStack:
    def test_begin_end_records_interval(self):
        tr = make_tracer()
        tr.begin("step 0", "step", k=0)
        tr.begin("sampling", "stage")
        inner = tr.end()
        outer = tr.end()
        assert inner.name == "sampling" and inner.kind == "stage"
        assert outer.name == "step 0" and outer.attrs == {"k": 0}
        # Nesting: the inner span closes first and sits inside the outer.
        assert outer.start < inner.start < inner.end < outer.end
        assert [s.name for s in tr.spans] == ["sampling", "step 0"]
        assert all(s.pid == 7 for s in tr.spans)

    def test_disabled_tracer_records_nothing(self):
        tr = make_tracer(enabled=False)
        assert tr.begin("x") is None
        assert tr.end() is None
        assert tr.add("x", "stage", 0.0, 1.0) is None
        assert tr.instant("x") is None
        assert tr.spans == [] and tr._stack == []

    def test_end_without_begin_is_tolerated(self):
        # A hook whose on_stage_start raised produces an unbalanced end.
        tr = make_tracer()
        assert tr.end() is None
        assert tr.spans == []

    def test_span_context_manager(self):
        tr = make_tracer()
        with tr.span("estimate", "stage"):
            pass
        assert tr.spans[0].name == "estimate"
        assert tr.spans[0].duration > 0

    def test_annotate_merges_into_open_span(self):
        tr = make_tracer()
        tr.begin("sort", "kernel", flops=10)
        tr.annotate(bytes_read=20)
        span = tr.end()
        assert span.attrs == {"flops": 10, "bytes_read": 20}

    def test_add_records_explicit_interval(self):
        tr = make_tracer()
        span = tr.add("exchange", "stage", 5.0, 9.0, attrs={"kernel": "route"})
        assert span.start == 5.0 and span.end == 9.0 and span.duration == 4.0

    def test_counters_live_while_disabled(self):
        tr = make_tracer(enabled=False)
        tr.count("transport_fallbacks")
        tr.count("transport_fallbacks", 2)
        assert tr.counters == {"transport_fallbacks": 3.0}

    def test_gauges_match_one_gauge_per_reading(self):
        one, many = make_tracer(), make_tracer()
        for values in ([1, 2.5, 3], [4.0, 5.0, 6.0], [7.0]):
            for i, v in enumerate(values):
                one.gauge(f"alloc.ess.f{i}", v)
            many.gauges("alloc.ess.f", values)
        assert many.counters == one.counters
        assert all(type(v) is float for v in many.counters.values())

    def test_drain_detaches_and_clears(self):
        tr = make_tracer()
        tr.add("a", "stage", 0.0, 1.0)
        tr.count("c", 5)
        spans, counters = tr.drain()
        assert len(spans) == 1 and counters == {"c": 5.0}
        assert tr.spans == [] and tr.counters == {}

    def test_merge_adopts_foreign_spans_and_labels(self):
        tr = make_tracer()
        foreign = [Span("sampling", "stage", 1.0, 2.0, pid=999)]
        tr.merge(foreign, label="worker-3")
        assert tr.spans[-1].pid == 999
        assert tr.labels[999] == "worker-3"


class TestWireFormat:
    def test_round_trip_preserves_everything(self):
        spans = [
            Span("sampling", "stage", 1.0, 2.0, pid=11, tid=0, attrs={"k": 3}),
            Span("sort", "kernel", 1.5, 1.75, pid=11, tid=0),
        ]
        back = spans_from_wire(spans_to_wire(spans))
        assert [(s.name, s.kind, s.start, s.end, s.pid, s.attrs) for s in back] \
            == [(s.name, s.kind, s.start, s.end, s.pid, s.attrs) for s in spans]

    def test_offset_shifts_the_clock(self):
        # The master re-bases worker spans: offset = recv_clock - reply_clock.
        rows = spans_to_wire([Span("resample", "stage", 10.0, 11.0, pid=5)])
        shifted = spans_from_wire(rows, offset=100.0)
        assert shifted[0].start == 110.0 and shifted[0].end == 111.0
        assert shifted[0].duration == pytest.approx(1.0)

    def test_open_spans_are_not_shipped(self):
        rows = spans_to_wire([Span("open", "stage", 1.0, None)])
        assert rows == []


class TestExporterIsolation:
    def test_raising_exporter_is_swallowed_and_counted(self):
        reset_hook_error_warnings()

        class Boom:
            def export(self, spans, counters, labels=None):
                raise RuntimeError("exporter broke")

        tr = make_tracer()
        tr.attach(Boom())
        tr.add("a", "stage", 0.0, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tr.flush()  # must not raise
            tr.flush()
        assert tr.counters["telemetry_errors"] == 2.0
        # Warned once per site, not once per failure.
        assert sum(issubclass(w.category, RuntimeWarning) for w in caught) == 1
        reset_hook_error_warnings()

    def test_attach_enables_recording(self):
        class Sink:
            def export(self, spans, counters, labels=None):
                self.got = (list(spans), dict(counters))

        tr = Tracer(clock=FakeClock(), enabled=False)
        sink = tr.attach(Sink())
        assert tr.enabled
        tr.add("a", "stage", 0.0, 1.0)
        tr.flush()
        assert len(sink.got[0]) == 1


class TestWarnOnce:
    def test_one_warning_per_site(self):
        reset_hook_error_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warn_hook_error_once("SiteA.method")
            warn_hook_error_once("SiteA.method")
            warn_hook_error_once("SiteB.method")
        assert len(caught) == 2
        reset_hook_error_warnings()


def test_run_metadata_fields():
    meta = run_metadata()
    assert set(meta) == {"git_sha", "python", "numpy", "platform",
                         "machine", "cpu_count"}
    assert meta["python"] and meta["numpy"]
