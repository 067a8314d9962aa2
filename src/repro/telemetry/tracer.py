"""Hierarchical spans and counters: the structured telemetry spine.

A :class:`Span` is one timed interval on the merged timeline — a whole
``run``, one filtering ``step``, one pipeline ``stage``, or one registered
``kernel`` dispatch — tagged with the process/thread that produced it and an
open attribute dict (flops/bytes from the kernel cost signatures, heal
deltas, routing widths...). A :class:`Tracer` is the process-local collector:
an explicit-clock span stack (``begin``/``end`` or the :meth:`Tracer.span`
context manager), counters, and a list of finished spans that
exporters (:mod:`repro.telemetry.exporters`) turn into a JSONL event log, a
Chrome/Perfetto ``trace_event`` file, or a plain-text breakdown table.

Span recording is **off by default**: a disabled tracer's ``begin``/``end``
are constant-time no-ops, so the hooks that carry telemetry through every
backend (see :mod:`repro.engine.hooks`) cost nothing measurable until an
exporter is attached or :attr:`Tracer.enabled` is set. Counters are plain
dict adds that work whether or not the tracer is enabled, and some
subsystems (transport fallback accounting, hook error isolation) count
unconditionally. Publishers whose counts only a trace reads count only on
traced steps: the allocation telemetry of a fixed-allocation round, and
the RNG lookahead's ``prng.lookahead_hits``/``prng.lookahead_misses``.

Cross-process merging: worker processes record spans against their own
``time.perf_counter`` clock and ship them through :func:`spans_to_wire`; the
master re-bases them onto its own clock with :func:`spans_from_wire` using a
per-worker offset estimated at reply receipt (``master_recv_clock -
worker_reply_clock``), giving one merged timeline (see
``docs/observability.md`` for the alignment error bound).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Canonical span kinds, outermost first. ``event`` marks instants.
SPAN_KINDS = ("run", "step", "stage", "kernel", "event")


@dataclass
class Span:
    """One finished (or still-open) timed interval."""

    name: str
    kind: str
    start: float
    end: float | None = None
    pid: int = 0
    tid: int = 0
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        """Elapsed seconds; 0.0 while the span is still open."""
        if self.end is None:
            return 0.0
        return self.end - self.start


def run_metadata() -> dict:
    """Attributable run provenance: git SHA, interpreter, platform, CPUs.

    Every field degrades to ``None`` rather than raising (benchmarks run
    outside git checkouts; exotic platforms may lack ``cpu_count``), so the
    record is safe to stamp unconditionally into reports and run spans.
    """
    import platform as _platform
    import subprocess

    try:
        import numpy as _np

        numpy_version = _np.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep everywhere else
        numpy_version = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except Exception:
        git_sha = None
    return {
        "git_sha": git_sha,
        "python": _platform.python_version(),
        "numpy": numpy_version,
        "platform": _platform.platform(),
        "machine": _platform.machine(),
        "cpu_count": os.cpu_count(),
    }


class Tracer:
    """Process-local span collector with an explicit clock.

    Parameters
    ----------
    clock:
        the time source; defaults to :func:`time.perf_counter`. Tests inject
        deterministic clocks; worker/master alignment assumes both sides use
        the same monotonic source.
    enabled:
        whether ``begin``/``end``/``add`` record anything. Attaching an
        exporter enables the tracer.
    pid / tid:
        identity stamped on every span this tracer records.
    """

    def __init__(self, clock=time.perf_counter, enabled: bool = False,
                 pid: int | None = None, tid: int = 0):
        self.clock = clock
        self.enabled = bool(enabled)
        self.pid = os.getpid() if pid is None else int(pid)
        self.tid = int(tid)
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._gauge_keys: dict[tuple[str, int], list[str]] = {}
        self._stack: list[Span] = []
        self._exporters: list = []
        #: pid -> human label, used by exporters to name process tracks.
        self.labels: dict[int, str] = {}

    # -- span stack -----------------------------------------------------------
    def begin(self, name: str, kind: str = "stage", **attrs) -> Span | None:
        """Open a span; no-op (returning ``None``) while disabled."""
        if not self.enabled:
            return None
        span = Span(name=name, kind=kind, start=self.clock(),
                    pid=self.pid, tid=self.tid, attrs=attrs or None)
        self._stack.append(span)
        return span

    def end(self, **attrs) -> Span | None:
        """Close the innermost open span; tolerant of a begin-less end.

        A hook whose ``on_stage_start`` raised (or ran while the tracer was
        disabled) produces an unbalanced ``end`` — swallowing it keeps hook
        error isolation from cascading.
        """
        if not self.enabled or not self._stack:
            return None
        span = self._stack.pop()
        span.end = self.clock()
        if attrs:
            span.attrs = {**(span.attrs or {}), **attrs}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, kind: str = "stage", **attrs):
        opened = self.begin(name, kind, **attrs) is not None
        try:
            yield
        finally:
            if opened:
                self.end()

    def add(self, name: str, kind: str, start: float, end: float,
            attrs: dict | None = None, pid: int | None = None,
            tid: int | None = None) -> Span | None:
        """Record an already-measured interval (no stack involvement)."""
        if not self.enabled:
            return None
        span = Span(name=name, kind=kind, start=start, end=end,
                    pid=self.pid if pid is None else pid,
                    tid=self.tid if tid is None else tid, attrs=attrs)
        self.spans.append(span)
        return span

    def instant(self, name: str, kind: str = "event", **attrs) -> Span | None:
        """A zero-duration marker span."""
        if not self.enabled:
            return None
        now = self.clock()
        return self.add(name, kind, now, now, attrs=attrs or None)

    def annotate(self, **attrs) -> None:
        """Merge attrs into the innermost open span (no-op when none)."""
        if self._stack:
            span = self._stack[-1]
            span.attrs = {**(span.attrs or {}), **attrs}

    # -- counters (live whether or not enabled) ------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record the latest observation of *name* (overwrite, don't sum).

        Gauges share the counter dict — exporters render both — but carry
        point-in-time readings (per-sub-filter ESS, weight-mass HHI) where
        accumulation would be meaningless.
        """
        self.counters[name] = float(value)

    def gauges(self, prefix: str, values) -> None:
        """``gauge(f"{prefix}{i}", v)`` for each reading; key lists are cached."""
        key = (prefix, len(values))
        if key not in self._gauge_keys:
            self._gauge_keys[key] = [f"{prefix}{i}" for i in range(len(values))]
        self.counters.update(zip(self._gauge_keys[key], map(float, values)))

    # -- merging ---------------------------------------------------------------
    def merge(self, spans: list[Span], label: str | None = None) -> None:
        """Adopt already-aligned foreign spans (from a worker process)."""
        self.spans.extend(spans)
        if label is not None and spans:
            self.labels[spans[0].pid] = label

    # -- export -----------------------------------------------------------------
    def attach(self, exporter) -> object:
        """Attach an exporter and enable span recording; returns it."""
        self._exporters.append(exporter)
        self.enabled = True
        return exporter

    def flush(self) -> None:
        """Push the collected spans/counters to every attached exporter.

        A raising exporter must never abort the run it observed: failures
        are swallowed into the ``telemetry_errors`` counter (warned once via
        the same channel as hook errors).
        """
        for exporter in self._exporters:
            try:
                exporter.export(self.spans, self.counters, labels=self.labels)
            except Exception:
                self.count("telemetry_errors")
                warn_hook_error_once(type(exporter).__name__ + ".export")

    def drain(self) -> tuple[list[Span], dict[str, float]]:
        """Detach and return (spans, counters), clearing the collector."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], {}
        return spans, counters

    def clear(self) -> None:
        self.spans = []
        self.counters = {}
        self._stack = []


# ---------------------------------------------------------------------------
# Wire format: how worker spans travel in the phase-2 reply.
# ---------------------------------------------------------------------------


def spans_to_wire(spans: list[Span]) -> list[tuple]:
    """Compact picklable rows ``(name, kind, start, end, pid, tid, attrs)``."""
    return [
        (s.name, s.kind, s.start, s.end, s.pid, s.tid, s.attrs)
        for s in spans
        if s.end is not None
    ]

def spans_from_wire(rows: list[tuple], offset: float = 0.0) -> list[Span]:
    """Rebuild spans, shifting their clock by *offset* seconds.

    ``offset`` is the receiver-clock minus sender-clock estimate; adding it
    re-bases the sender's timestamps onto the receiver's timeline.
    """
    return [
        Span(name=r[0], kind=r[1], start=r[2] + offset, end=r[3] + offset,
             pid=r[4], tid=r[5], attrs=r[6])
        for r in rows
    ]


# ---------------------------------------------------------------------------
# Warn-once channel shared by hook/exporter error isolation.
# ---------------------------------------------------------------------------

_warned: set = set()


def warn_hook_error_once(where: str) -> None:
    """Emit one RuntimeWarning per call-site name per process."""
    import warnings

    if where in _warned:
        return
    _warned.add(where)
    warnings.warn(
        f"telemetry observer {where} raised; the filter step completed but "
        "telemetry from this observer may be incomplete (counted in "
        "telemetry_errors; further errors at this site are suppressed)",
        RuntimeWarning, stacklevel=3)


def reset_hook_error_warnings() -> None:
    """Test hook: forget which sites already warned."""
    _warned.clear()
