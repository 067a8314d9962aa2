"""Recorders and arithmetic for the traced, per-layer run.

Everything here measures from outside the package: a :class:`SpanHook`
attached with ``pipeline.add_hook``, wrappers around public methods, and a
:class:`Meter` that times model calls and generator draws. End-to-end
numbers never come from a run that has any of these attached.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import resource
import time
from collections import defaultdict

import numpy as np

from repro.engine import StageHook

#: fields a :class:`Meter` accumulates, per process.
METER_FIELDS = ("transition", "log_likelihood", "calls", "rand")
_MODEL_FIELDS = ("transition", "log_likelihood")


class Meter:
    """Per-process time and call totals kept in shared memory.

    Forked worker processes inherit the mapping, so a model or generator
    running inside a multiprocess worker still reports here. Each process
    claims one row on first use and is its only writer. Model calls made in
    the process that created the meter also become ``model`` spans in
    ``tracer``, so stage self times exclude them; draws stay inside the
    stage (or model call) that made them.
    """

    def __init__(self, tracer=None, rows: int = 8):
        self.tracer = tracer
        self._owner = os.getpid()
        self._rows = rows
        self._flag = mp.RawValue("b", 0)
        self._pids = mp.RawArray("q", rows)
        self._sums = mp.RawArray("d", rows * len(METER_FIELDS))
        self._lock = mp.Lock()
        self._row_of: dict[int, int] = {}

    @property
    def on(self) -> bool:
        return bool(self._flag.value)

    @on.setter
    def on(self, value: bool) -> None:
        self._flag.value = 1 if value else 0

    def _row(self) -> int:
        pid = os.getpid()
        row = self._row_of.get(pid)
        if row is None:
            with self._lock:
                free = [i for i in range(self._rows) if self._pids[i] == 0]
                if not free:
                    raise RuntimeError("meter has no free row for another process")
                row = free[0]
                self._pids[row] = pid
            self._row_of[pid] = row
        return row

    def record(self, field: str, start: float, end: float) -> None:
        base = self._row() * len(METER_FIELDS)
        self._sums[base + METER_FIELDS.index(field)] += end - start
        if field in _MODEL_FIELDS:
            self._sums[base + METER_FIELDS.index("calls")] += 1
            if self.tracer is not None and os.getpid() == self._owner:
                self.tracer.add(field, "model", start, end)

    def totals(self) -> dict[int, dict[str, float]]:
        """``{pid: {field: total}}`` for every process that recorded."""
        n = len(METER_FIELDS)
        return {int(self._pids[i]): {f: self._sums[i * n + j]
                                     for j, f in enumerate(METER_FIELDS)}
                for i in range(self._rows) if self._pids[i]}


def meter_draws(meter: Meter):
    """Time every NumPy-generator draw into *meter*; returns an undo callable.

    All workloads draw through :class:`repro.prng.streams.NumpyRNG`, whether
    directly (fused and cohort paths), through the timing wrapper, or through
    a worker's per-filter streams. Install before any worker is forked.
    """
    from repro.prng.streams import NumpyRNG

    plain = {name: getattr(NumpyRNG, name) for name in ("uniform", "normal")}

    def timed(fn):
        def draw(self, shape, dtype=np.float64):
            if not meter.on:
                return fn(self, shape, dtype)
            start = time.perf_counter()
            out = fn(self, shape, dtype)
            meter.record("rand", start, time.perf_counter())
            return out
        return draw

    for name, fn in plain.items():
        setattr(NumpyRNG, name, timed(fn))

    def undo():
        for name, fn in plain.items():
            setattr(NumpyRNG, name, fn)
    return undo


class SpanHook(StageHook):
    """Records ``step`` and ``stage`` spans of a pipeline into a tracer."""

    def __init__(self, tracer):
        self.tracer = tracer

    def on_step_start(self, state) -> None:
        self.tracer.begin("step", "step")

    def on_stage_start(self, name, state) -> None:
        self.tracer.begin(name, "stage")

    def on_stage_end(self, name, state, elapsed) -> None:
        self.tracer.end()

    def on_step_end(self, state) -> None:
        self.tracer.end()


def timed_method(obj, name: str, tracer, kind: str, on_start=None):
    """Replace ``obj.<name>`` by a wrapper that records one span per call.

    ``on_start(start, *args)`` runs before the call. Returns an undo callable
    that restores the original attribute lookup.
    """
    fn = getattr(obj, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        if on_start is not None:
            on_start(start, *args)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add(name, kind, start, time.perf_counter())

    setattr(obj, name, wrapper)
    return lambda: delattr(obj, name)


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    A span's parent is the innermost span on the same ``(pid, tid)`` track
    whose interval encloses it. Overlapping children are counted once.
    Returns one value per input span, in input order.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    tracks: dict[tuple, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        tracks[(s.pid, s.tid)].append(i)
    for members in tracks.values():
        # Parents sort before the children they enclose: earlier start first,
        # and of two spans starting together the longer one first.
        members.sort(key=lambda i: (spans[i].start, -spans[i].end))
        stack: list[int] = []
        for i in members:
            s = spans[i]
            while stack and spans[stack[-1]].end < s.end:
                stack.pop()
            if stack:
                children[stack[-1]].append((s.start, s.end))
            stack.append(i)
    return [s.end - s.start - _covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def self_time_by_name(spans, kinds=("stage",)) -> dict[str, float]:
    """Total self time per span name, over spans of the given kinds."""
    out: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        if s.kind in kinds:
            out[s.name] += t
    return dict(out)


def overhead_frac(untraced_s_per_round: float, traced_s_per_round: float) -> float:
    """How much slower a round ran with the recorders attached (0.1 = 10%)."""
    return traced_s_per_round / untraced_s_per_round - 1.0


# ---------------------------------------------------------------------------
# Process accounting
# ---------------------------------------------------------------------------

def _read_proc(pid: int, name: str) -> str | None:
    try:
        with open(f"/proc/{pid}/{name}") as fh:
            return fh.read()
    except (FileNotFoundError, ProcessLookupError):
        return None


def cpu_seconds() -> tuple[float, float]:
    """``(own, children)`` user+system CPU seconds.

    ``children`` sums the live multiprocessing children, read from
    ``/proc`` so that workers count before they exit.
    """
    ru = resource.getrusage(resource.RUSAGE_SELF)
    kids = 0.0
    tick = os.sysconf("SC_CLK_TCK")
    for child in mp.active_children():
        stat = _read_proc(child.pid, "stat")
        if stat is not None:
            fields = stat.rsplit(")", 1)[1].split()
            kids += (int(fields[11]) + int(fields[12])) / tick
    return ru.ru_utime + ru.ru_stime, kids


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live children, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in mp.active_children():
        status = _read_proc(child.pid, "status")
        for line in (status or "").splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024.0
