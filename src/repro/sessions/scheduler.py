"""Admission and batching across many live filter sessions.

:class:`SessionManager` is the session layer's front door: clients attach a
``(model, config)`` pair under a session id, submit measurements into a
bounded per-session ingress queue, and receive demuxed per-session
:class:`~repro.sessions.session.StepResult`\\ s. Internally the manager

- groups admitted sessions into :class:`~repro.sessions.cohort.Cohort`
  slabs by :func:`~repro.sessions.envelope.cohort_key` (same model, same
  config up to the seed) when the pair is inside the cohort envelope, and
  falls back to a private :class:`~repro.core.DistributedParticleFilter`
  per session otherwise — out-of-envelope sessions are served, just not
  batched;
- steps each cohort's ready sessions (non-empty queue) as one slab call per
  :meth:`tick` (batch-on-tick), or eagerly whenever ``batch_size`` sessions
  of a cohort become ready (batch-on-size);
- tracks submit-to-result latency in a rolling window for p50/p99
  reporting.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import compress

import numpy as np

from repro.sessions.envelope import cohort_envelope, cohort_key
from repro.sessions.cohort import Cohort
from repro.sessions.session import FilterSession, QueueFullError, StepResult


class _LatencyWindow:
    """Rolling window of recent step latencies with percentile readout."""

    def __init__(self, size: int = 4096):
        self._window: deque = deque(maxlen=size)

    def add(self, seconds: float) -> None:
        self._window.append(seconds)

    def extend(self, seconds) -> None:
        self._window.extend(seconds)

    def percentiles(self) -> dict:
        if not self._window:
            return {"count": 0, "p50_s": None, "p99_s": None, "max_s": None}
        arr = np.asarray(self._window, dtype=np.float64)
        return {
            "count": len(arr),
            "p50_s": float(np.percentile(arr, 50)),
            "p99_s": float(np.percentile(arr, 99)),
            "max_s": float(arr.max()),
        }


class SessionManager:
    """Admission, cohort formation, batched stepping and result demux.

    Parameters
    ----------
    max_queue:
        per-session ingress bound; a submit past it raises
        :class:`QueueFullError` (``on_full="raise"``) or silently evicts the
        oldest queued observation (``on_full="drop_oldest"``).
    batch_size:
        when set, a cohort is stepped eagerly as soon as
        ``min(batch_size, len(cohort))`` of its sessions have queued work,
        instead of waiting for the next :meth:`tick`.
    scratch_cap_bytes:
        cap handed to every cohort slab's scratch pool (see
        :meth:`~repro.engine.state.FilterState.scratch_stats`) so a
        long-lived server's buffer pools cannot grow without bound.
    """

    def __init__(self, max_queue: int = 256, on_full: str = "raise",
                 batch_size: int | None = None, tracer=None,
                 scratch_cap_bytes: int | None = None):
        if on_full not in ("raise", "drop_oldest"):
            raise ValueError(
                f"on_full must be 'raise' or 'drop_oldest', got {on_full!r}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.max_queue = int(max_queue)
        self.on_full = on_full
        if batch_size is not None and batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1 (or None to step on tick), got {batch_size}")
        self.batch_size = None if batch_size is None else int(batch_size)
        self.tracer = tracer
        self.scratch_cap_bytes = scratch_cap_bytes
        self.sessions: dict[str, FilterSession] = {}
        #: the out-of-envelope sessions, in admission order.
        self._solo: dict[str, FilterSession] = {}
        self.cohorts: dict[tuple, Cohort] = {}
        self.counters = {
            "attached": 0, "detached": 0, "cohort_steps": 0,
            "session_steps": 0, "solo_steps": 0, "dropped": 0,
        }
        self._results: list[StepResult] = []
        self._latency = _LatencyWindow()

    # -- admission -----------------------------------------------------------
    def attach(self, session_id: str, model, config) -> FilterSession:
        """Admit a new session; cohort-batched when in-envelope, solo else."""
        if session_id in self.sessions:
            raise ValueError(f"session {session_id!r} already attached")
        return self._admit(FilterSession(session_id, model, config))

    def readmit(self, sess: FilterSession) -> FilterSession:
        """Re-admit a previously detached session (here or elsewhere).

        The session carries its population, RNG state, step clock and
        counters, so its trace continues exactly where :meth:`detach` left
        it — bit-identical to never having left.
        """
        if sess.session_id in self.sessions:
            raise ValueError(f"session {sess.session_id!r} already attached")
        if sess.cohort is not None:
            raise ValueError(
                f"session {sess.session_id!r} is still in a cohort")
        return self._admit(sess)

    def _admit(self, sess: FilterSession) -> FilterSession:
        ok, reason = cohort_envelope(sess.model, sess.config)
        if ok:
            key = cohort_key(sess.model, sess.config)
            cohort = self.cohorts.get(key)
            if cohort is None:
                cohort = self.cohorts[key] = Cohort(
                    key, sess.model, sess.config, tracer=self.tracer,
                    scratch_cap_bytes=self.scratch_cap_bytes)
            cohort.attach(sess)
            cohort.queued += bool(sess.queue)
        else:
            if sess.solo is None:
                from repro.core.distributed import DistributedParticleFilter

                sess.envelope_reason = reason
                sess.solo = DistributedParticleFilter(
                    sess.model, sess.config, tracer=self.tracer)
                sess.solo.initialize()
            self._solo[sess.session_id] = sess
        self.sessions[sess.session_id] = sess
        self.counters["attached"] += 1
        return sess

    def detach(self, session_id: str) -> FilterSession:
        """Remove a session; cohort-mates keep their rows and their streams.

        Queued-but-unstepped observations are dropped with the session. The
        detached session retains its population, RNG state and step clock,
        so re-attaching it (to this or another manager) continues its trace.
        """
        sess = self.sessions.pop(session_id, None)
        if sess is None:
            raise KeyError(f"unknown session {session_id!r}")
        cohort = sess.cohort
        if cohort is not None:
            cohort.queued -= bool(sess.queue)
            cohort.detach(sess)
            if not cohort.sessions:
                del self.cohorts[cohort.key]
        self._solo.pop(session_id, None)
        sess.queue.clear()
        self.counters["detached"] += 1
        return sess

    # -- ingress -------------------------------------------------------------
    def submit(self, session_id: str, measurement, control=None) -> None:
        """Queue one observation for *session_id* (bounded)."""
        sess = self.sessions.get(session_id)
        if sess is None:
            raise KeyError(f"unknown session {session_id!r}")
        queue, cohort = sess.queue, sess.cohort
        if len(queue) >= self.max_queue:
            if self.on_full == "raise":
                raise QueueFullError(
                    f"session {session_id!r} queue is full "
                    f"({self.max_queue} pending)")
            queue.popleft()
            self.counters["dropped"] += 1
        elif not queue and cohort is not None:
            cohort.queued += 1
        queue.append((measurement, control, time.perf_counter()))
        if (self.batch_size is not None and cohort is not None
                and cohort.queued >= min(self.batch_size, len(cohort.sessions))):
            self._step_cohort(cohort, [s for s in cohort.sessions if s.queue])

    # -- stepping ------------------------------------------------------------
    def _step_cohort(self, cohort: Cohort, ready: list[FilterSession]) -> None:
        """Step *ready* (in block order) on its queue heads: one slab call,
        or two when only some sessions queued a control, since the slab
        takes a control for every row or for none."""
        payloads = [s.queue.popleft() for s in ready]
        cohort.queued -= len(ready) - len([s for s in ready if s.queue])
        bare = [p[1] is None for p in payloads]
        if all(bare) or not any(bare):
            self._step_slab(cohort, ready, payloads)
            return
        for group in (bare, [not b for b in bare]):
            self._step_slab(cohort, list(compress(ready, group)),
                            list(compress(payloads, group)))

    def _step_slab(self, cohort: Cohort, ready: list[FilterSession],
                   payloads: list[tuple]) -> None:
        measurements, controls, stamps = zip(*payloads)
        cohort.step(ready, measurements, None if controls[0] is None else controls)
        now = time.perf_counter()
        lats = [now - ts for ts in stamps]
        self._results += [StepResult(s.session_id, s.k, s.last_estimate, lat)
                          for s, lat in zip(ready, lats)]
        self._latency.extend(lats)
        self.counters["cohort_steps"] += 1
        self.counters["session_steps"] += len(ready)
        if self.tracer is not None:
            self.tracer.count("sessions.cohort_steps")
            self.tracer.count("sessions.session_steps", len(ready))

    def _step_solo(self, sess: FilterSession) -> None:
        measurement, control, ts = sess.queue.popleft()
        est = sess.solo.step(measurement, control)
        sess.k = sess.solo.k
        sess.last_estimate = est
        lat = time.perf_counter() - ts
        self._results.append(
            StepResult(sess.session_id, sess.k, np.asarray(est, dtype=np.float64),
                       lat))
        self._latency.add(lat)
        self.counters["solo_steps"] += 1
        self.counters["session_steps"] += 1

    def tick(self) -> list[StepResult]:
        """One scheduling round: step every session with queued work once.

        Each cohort whose sessions have work gets exactly one batched slab
        call covering its ready subset; solo sessions step individually.
        Returns (and drains) the results produced, including any buffered by
        eager batch-on-size steps since the last drain.
        """
        for cohort in self.cohorts.values():
            ready = [s for s in cohort.sessions if s.queue]
            if ready:
                self._step_cohort(cohort, ready)
        for sess in self._solo.values():
            if sess.queue:
                self._step_solo(sess)
        return self.drain()

    def pump(self) -> list[StepResult]:
        """Tick until every queue is empty; returns all results produced."""
        out: list[StepResult] = []
        while True:
            batch = self.tick()
            if not batch:
                return out
            out.extend(batch)

    def reset_latency(self) -> None:
        """Restart the latency window (e.g. after a warmup period)."""
        self._latency = _LatencyWindow(self._latency._window.maxlen)

    def drain(self) -> list[StepResult]:
        """Take the buffered results (demuxed, in production order)."""
        out = self._results
        self._results = []
        return out

    # -- introspection -------------------------------------------------------
    @property
    def queued(self) -> int:
        return sum(len(s.queue) for s in self.sessions.values())

    def stats(self) -> dict:
        """Scheduler health: population, throughput counters, latency, and
        the cohort slabs' scratch-pool stats."""
        scratch = {"hits": 0, "misses": 0, "evictions": 0, "buffers": 0,
                   "bytes_held": 0}
        for cohort in self.cohorts.values():
            for k, v in cohort.scratch_stats().items():
                scratch[k] += v
        return {
            "sessions": len(self.sessions),
            "cohorts": len(self.cohorts),
            "solo_sessions": len(self._solo),
            "queued": self.queued,
            "counters": dict(self.counters),
            "latency": self._latency.percentiles(),
            "scratch": scratch,
        }
