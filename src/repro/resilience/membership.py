"""Cluster membership: who is in the group, and which sub-filters they own.

The master loop used to track liveness as a bare ``list[bool]`` and
ownership as fixed ``[w*B, (w+1)*B)`` block arithmetic. :class:`Membership`
makes both first-class so the group can *change shape* mid-run:

- every worker has a status (``init`` → ``live`` → ``dead``) driven by the
  spawn/heartbeat/gather machinery;
- every worker owns an explicit, sorted set of global sub-filter ids — the
  shard assignment — which rebalancing may redistribute;
- every transition is recorded in a bounded event log (ring buffer + dropped
  counter, same discipline as the supervisor's), and bumps an ``epoch`` that
  downstream consumers (shard routing tables, telemetry) use to invalidate
  cached views.

:meth:`deal` plans and :meth:`rebalance` applies the leader-driven ladder's
last rung before checkpoint-and-abort: a dead worker's sub-filters are dealt
one at a time, in ascending id order, to the live worker that currently owns
the fewest (ties to the lowest worker id) — deterministic, so two masters
replaying the same failure history compute the same assignment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MemberEvent:
    """One membership transition, for forensics and tests."""

    step: int
    worker_id: int
    kind: str  # "join" | "leave" | "evict" | "rebalance" | "adopt"
    detail: str = ""

    def as_dict(self) -> dict:
        return {"step": self.step, "worker_id": self.worker_id,
                "kind": self.kind, "detail": self.detail}


class Membership:
    """Worker statuses + the filter→worker ownership map, with an epoch."""

    def __init__(self, n_filters: int, n_workers: int, assignment=None,
                 event_cap: int = 1024):
        self.n_filters = int(n_filters)
        self.n_workers = int(n_workers)
        if self.n_workers < 1:
            raise ValueError("need at least one worker")
        if assignment is None:
            if self.n_filters % self.n_workers:
                raise ValueError(
                    f"default contiguous assignment needs n_workers "
                    f"({self.n_workers}) to divide n_filters "
                    f"({self.n_filters})")
            block = self.n_filters // self.n_workers
            assignment = np.repeat(np.arange(self.n_workers, dtype=np.int64),
                                   block)
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (self.n_filters,):
            raise ValueError(
                f"assignment must have shape ({self.n_filters},), "
                f"got {assignment.shape}")
        self._owned: list[np.ndarray] = [
            np.flatnonzero(assignment == w) for w in range(self.n_workers)]
        self.status: list[str] = ["init"] * self.n_workers
        self.epoch = 0
        self.events: deque[MemberEvent] = deque(maxlen=int(event_cap))
        self.events_dropped = 0

    # -- queries --------------------------------------------------------------
    def owned(self, worker: int) -> np.ndarray:
        """Global sub-filter ids *worker* owns, ascending."""
        return self._owned[worker]

    def is_live(self, worker: int) -> bool:
        return self.status[worker] == "live"

    def live_workers(self) -> list[int]:
        return [w for w in range(self.n_workers) if self.status[w] == "live"]

    @property
    def n_live(self) -> int:
        return sum(1 for s in self.status if s == "live")

    def owner_of(self) -> np.ndarray:
        """``(n_filters,)`` map filter → owning worker, ``-1`` if unowned."""
        owner = np.full(self.n_filters, -1, dtype=np.int64)
        for w, ids in enumerate(self._owned):
            owner[ids] = w
        return owner

    def assignment(self) -> np.ndarray:
        """Alias of :meth:`owner_of` — the checkpointable shard assignment."""
        return self.owner_of()

    def live_owner_of(self) -> np.ndarray:
        """Like :meth:`owner_of` but ``-1`` for filters on dead workers."""
        owner = np.full(self.n_filters, -1, dtype=np.int64)
        for w, ids in enumerate(self._owned):
            if self.status[w] == "live":
                owner[ids] = w
        return owner

    # -- transitions ----------------------------------------------------------
    def record(self, step: int, worker: int, kind: str, detail: str = "") -> None:
        if len(self.events) == self.events.maxlen:
            self.events_dropped += 1
        self.events.append(MemberEvent(int(step), int(worker), kind, detail))

    def join(self, worker: int, step: int = -1, detail: str = "") -> None:
        self.status[worker] = "live"
        self.record(step, worker, "join", detail)

    def leave(self, worker: int, step: int = -1, detail: str = "",
              kind: str = "leave") -> None:
        self.status[worker] = "dead"
        self.record(step, worker, kind, detail)

    def evict(self, worker: int, step: int = -1, detail: str = "") -> None:
        self.leave(worker, step, detail, kind="evict")

    def set_owned(self, worker: int, ids) -> None:
        """Replace *worker*'s ownership (checkpoint restore path)."""
        self._owned[worker] = np.sort(np.asarray(ids, dtype=np.int64))
        self.epoch += 1

    def deal(self, dead_worker: int) -> dict[int, np.ndarray]:
        """The deal :meth:`rebalance` applies, computed without applying it.

        Returns ``{survivor: adopted_ids}`` for every survivor that gains
        sub-filters (ascending ids per survivor). Deterministic: ids are
        dealt in ascending order, each to the live worker owning the fewest
        filters at that moment, ties to the lowest worker id.
        """
        live = self.live_workers()
        if not live:
            raise ValueError("rebalance needs at least one live worker")
        loads = {w: int(self._owned[w].size) for w in live}
        adopted: dict[int, list[int]] = {w: [] for w in live}
        for f in self._owned[dead_worker].tolist():
            w = min(live, key=lambda w: (loads[w], w))
            adopted[w].append(f)
            loads[w] += 1
        return {w: np.asarray(ids, dtype=np.int64)
                for w, ids in adopted.items() if ids}

    def rebalance(self, dead_worker: int, step: int = -1) -> dict[int, np.ndarray]:
        """Move *dead_worker*'s sub-filters to the live workers per :meth:`deal`.

        Returns the deal; the dead worker ends up owning nothing.
        """
        n_orphans = int(self._owned[dead_worker].size)
        out = self.deal(dead_worker)
        self._owned[dead_worker] = np.empty(0, dtype=np.int64)
        for w, arr in out.items():
            self._owned[w] = np.sort(np.concatenate([self._owned[w], arr]))
            self.record(step, w, "adopt",
                        f"{arr.size} filters from worker {dead_worker}")
        self.epoch += 1
        self.record(step, dead_worker, "rebalance",
                    f"{n_orphans} filters redistributed over "
                    f"{len(out)} survivors")
        return out

    # -- reporting ------------------------------------------------------------
    def event_log(self) -> list[dict]:
        return [e.as_dict() for e in self.events]

    def summary(self) -> dict:
        counts: dict[str, int] = {}
        for e in self.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return {
            "n_workers": self.n_workers,
            "statuses": list(self.status),
            "owned_counts": [int(ids.size) for ids in self._owned],
            "epoch": self.epoch,
            "n_events": len(self.events),
            "events_dropped": self.events_dropped,
            "event_counts": counts,
        }
