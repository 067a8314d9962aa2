"""One tracked client: a filter identity plus its queued observations.

A :class:`FilterSession` owns everything that distinguishes one client's
filter from its cohort-mates: the RNG lineage (seeded generator), the step
clock, the allocation-policy state, the healing/allocation counters, and a
bounded ingress queue of not-yet-filtered observations. The particle
population itself lives either

- inside a shared cohort slab (``session.cohort`` set, ``session.block``
  giving its row-block index), or
- in the session's private storage (detached), or
- inside a private :class:`~repro.core.DistributedParticleFilter` when the
  (model, config) pair is outside the cohort envelope (``session.solo``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.allocation import make_allocation_policy
from repro.core.parameters import DistributedFilterConfig
from repro.prng.streams import make_rng


class QueueFullError(RuntimeError):
    """A submit against a session whose ingress queue is at capacity."""


@dataclass
class StepResult:
    """One demuxed filtering step: who, which step, what estimate, how long.

    ``latency_s`` is submit-to-result wall time — queue wait plus the
    session's share of the batched step.
    """

    session_id: str
    k: int
    estimate: np.ndarray
    latency_s: float


class FilterSession:
    """A client/session-keyed filter identity managed by the session layer."""

    def __init__(self, session_id: str, model, config: DistributedFilterConfig):
        self.session_id = str(session_id)
        self.model = model
        self.config = config
        #: the session's private stream — the same ``make_rng(cfg.rng,
        #: cfg.seed)`` lineage a standalone DistributedParticleFilter wraps,
        #: so cohort draws replay the solo draw sequence bit-for-bit.
        self.rng = make_rng(config.rng, config.seed)
        self.alloc_policy = make_allocation_policy(config)
        self.k = 0
        self.last_estimate: np.ndarray | None = None
        self.heal_counters = {"sanitized": 0, "rejuvenated": 0}
        self.alloc_counters = {"particles_migrated": 0, "width_changes": 0}
        #: queued ``(measurement, control, enqueue_perf_counter)`` triples.
        self.queue: deque = deque()
        self.cohort = None
        self.block = -1
        #: ``rng``'s NumPy ``Generator`` when it can fill a striped draw in
        #: place (:func:`~repro.prng.streams.numpy_generator`), set at
        #: cohort attach.
        self.numpy_gen = None
        #: the private fallback filter for out-of-envelope sessions.
        self.solo = None
        self.envelope_reason = ""
        self._states: np.ndarray | None = None
        self._log_weights: np.ndarray | None = None
        self._widths: np.ndarray | None = None

    # -- population lifecycle ------------------------------------------------
    def take_population(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Hand the detached population over (ownership transfer)."""
        if self._states is None:
            raise ValueError(
                f"session {self.session_id!r} has no detached population")
        out = (self._states, self._log_weights, self._widths)
        self._states = self._log_weights = self._widths = None
        return out

    def store_population(self, states: np.ndarray, log_weights: np.ndarray,
                         widths: np.ndarray | None) -> None:
        """Receive the population back (cohort detach)."""
        self._states, self._log_weights, self._widths = states, log_weights, widths

    @property
    def attached(self) -> bool:
        return self.cohort is not None

    @property
    def states(self) -> np.ndarray | None:
        """The session's ``(X, m, d)`` particle rows, wherever they live."""
        if self.solo is not None:
            return self.solo.states
        if self.cohort is not None:
            return self.cohort.session_rows(self)[0]
        return self._states

    @property
    def log_weights(self) -> np.ndarray | None:
        if self.solo is not None:
            return self.solo.log_weights
        if self.cohort is not None:
            return self.cohort.session_rows(self)[1]
        return self._log_weights

    @property
    def widths(self) -> np.ndarray | None:
        if self.solo is not None:
            return self.solo.widths
        if self.cohort is not None:
            return self.cohort.session_rows(self)[2]
        return self._widths

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = ("solo" if self.solo is not None
                 else f"cohort[{self.block}]" if self.cohort is not None
                 else "detached")
        return (f"FilterSession({self.session_id!r}, k={self.k}, {where}, "
                f"queued={len(self.queue)})")
