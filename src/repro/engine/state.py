"""The filtering state shared by every execution backend.

:class:`FilterState` is the single mutable container Algorithm 2's stages
operate on: the particle population, the step counter, the numerical
self-healing counters, and the per-round scratch slots (measurement, pooled
candidate sets, estimate) that stages hand to one another. Hooks observe it
through read-only snapshot accessors rather than reaching into backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _fresh_heal_counters() -> dict[str, int]:
    return {"sanitized": 0, "rejuvenated": 0}


def _fresh_alloc_counters() -> dict[str, int]:
    return {"particles_migrated": 0, "width_changes": 0}


@dataclass
class FilterState:
    """Mutable state of one distributed-filter population.

    Attributes
    ----------
    states:
        ``(n_filters, m, state_dim)`` particle states (``None`` before
        :meth:`reset` / the owning filter's ``initialize``).
    log_weights:
        ``(n_filters, m)`` float64 log importance weights.
    k:
        the current time step (number of completed rounds).
    heal_counters:
        cumulative numerical self-healing counters (``sanitized`` particles,
        ``rejuvenated`` sub-filters).
    last_estimate:
        the most recent global estimate.

    The remaining fields are per-round scratch written and read by stages:
    ``measurement``/``control`` (set by the pipeline before the first stage),
    ``estimate`` (written by the estimate stage), ``pooled_states``/
    ``pooled_logw`` (written by the exchange stage, consumed by resampling).
    For the loop-based oracle the pooled slots hold per-sub-filter Python
    lists instead of batched arrays — stages of one backend family agree on
    the representation, the container does not care.
    """

    states: np.ndarray | None = None
    log_weights: np.ndarray | None = None
    k: int = 0
    heal_counters: dict[str, int] = field(default_factory=_fresh_heal_counters)
    last_estimate: np.ndarray | None = None
    #: per-sub-filter live widths ``m_i`` for the padded ``(F, m_max, d)``
    #: layout (``None`` means every row is full — the classic fixed layout).
    #: Live particles occupy slots ``[0, m_i)``; padded slots hold copies of
    #: real particles at ``-inf`` log-weight (see :mod:`repro.allocation`).
    widths: np.ndarray | None = None
    #: cumulative allocation counters (particles migrated between widths,
    #: number of per-sub-filter width changes applied).
    alloc_counters: dict[str, int] = field(default_factory=_fresh_alloc_counters)

    # -- per-round scratch, owned by the stages --------------------------------
    measurement: np.ndarray | None = None
    control: np.ndarray | None = None
    estimate: np.ndarray | None = None
    pooled_states: object = None
    pooled_logw: object = None
    #: per-sub-filter pre-resample health metrics, written by the resample
    #: stage (weights are reset by resampling, so they must be captured
    #: there) and consumed by the allocation stage / telemetry hooks.
    round_ess: np.ndarray | None = None
    round_mass_share: np.ndarray | None = None
    #: bool (F,) mask of rows the resample stage actually resampled.
    resampled_mask: np.ndarray | None = None
    #: heal's verdict this round: ``True`` when its ``healthy_round`` check
    #: passed, so the estimate need not scan the states again (sorting only
    #: permutes rows). Sampling clears it; a round heal did not vouch for is
    #: scanned by the estimate as before.
    healthy: bool = False
    #: ``(kernel_name, elapsed_seconds)`` events appended by
    #: :meth:`~repro.engine.stage.ExecutionContext.invoke_kernel`; drained by
    #: :class:`~repro.engine.hooks.KernelTimingHook` at every stage end.
    kernel_events: list = field(default_factory=list)
    #: keyed pool of reusable work buffers (see :meth:`scratch`); survives
    #: across rounds so the steady-state hot path is allocation-free.
    _scratch: dict = field(default_factory=dict, repr=False)
    #: optional cap (bytes) on the bytes the scratch pool may retain; the
    #: least-recently-used buffers are dropped past it. ``None`` (the
    #: default) keeps the historical unbounded behaviour — long-lived
    #: session servers set a cap so shape churn cannot grow the pool
    #: without bound.
    scratch_cap_bytes: int | None = None
    _scratch_bytes: int = field(default=0, repr=False)
    _scratch_hits: int = field(default=0, repr=False)
    _scratch_misses: int = field(default=0, repr=False)
    _scratch_evictions: int = field(default=0, repr=False)

    def reset(self, states: np.ndarray, log_weights: np.ndarray,
              widths: np.ndarray | None = None) -> None:
        """Install a fresh population and clear counters/scratch."""
        self.states = states
        self.log_weights = log_weights
        self.widths = None if widths is None else np.asarray(widths, dtype=np.int64)
        self.k = 0
        self.heal_counters = _fresh_heal_counters()
        self.alloc_counters = _fresh_alloc_counters()
        self.last_estimate = None
        self._scratch = {}
        self._scratch_bytes = 0
        self.clear_round()

    # -- reusable work buffers --------------------------------------------------
    def scratch(self, key: str, shape: tuple, dtype) -> np.ndarray:
        """A reusable uninitialised buffer of the given shape/dtype.

        The pool is keyed by ``(key, shape, dtype)``, so a float32 request
        can never be served a float64 buffer that happens to sit under the
        same name (dtype-policy safety: a recycled buffer of the wrong
        precision would otherwise silently upcast a whole round). Buffers
        persist across rounds, so stages that call this every step allocate
        only on the first round (or when the shape or dtype changes).
        Contents are garbage — callers must overwrite fully.
        """
        dtype = np.dtype(dtype)
        pool_key = (key, tuple(shape), dtype)
        arr = self._scratch.get(pool_key)
        if arr is None:
            self._scratch_misses += 1
            arr = np.empty(shape, dtype=dtype)
            self._scratch[pool_key] = arr
            self._scratch_bytes += arr.nbytes
            self._enforce_scratch_cap(pool_key)
        else:
            self._scratch_hits += 1
            # Refresh recency (dicts preserve insertion order, so the pool
            # doubles as an LRU list: oldest entries sit at the front).
            del self._scratch[pool_key]
            self._scratch[pool_key] = arr
        return arr

    def recycle(self, key: str, arr: np.ndarray) -> None:
        """Donate *arr* as the next buffer served for *key* (ping-pong reuse).

        Used after an out-of-place gather: the freshly filled scratch buffer
        becomes the live array and the *old* live array is recycled here, so
        the next round's :meth:`scratch` never hands back a buffer aliasing
        its own input. The donated array is keyed by its *own* shape and
        dtype — a later :meth:`scratch` call only receives it when both
        match exactly.
        """
        pool_key = (key, arr.shape, arr.dtype)
        old = self._scratch.pop(pool_key, None)
        if old is not None:
            self._scratch_bytes -= old.nbytes
        self._scratch[pool_key] = arr
        self._scratch_bytes += arr.nbytes
        self._enforce_scratch_cap(pool_key)

    def _enforce_scratch_cap(self, keep) -> None:
        """Drop least-recently-used buffers past ``scratch_cap_bytes``.

        Never evicts *keep* (the buffer just handed out or donated): callers
        hold it live this round. Eviction merely forgets a buffer — the
        scratch contract says contents are garbage, so a later request for
        the same key simply allocates fresh.
        """
        cap = self.scratch_cap_bytes
        if cap is None or self._scratch_bytes <= cap:
            return
        for k in list(self._scratch):
            if self._scratch_bytes <= cap:
                break
            if k == keep:
                continue
            self._scratch_bytes -= self._scratch.pop(k).nbytes
            self._scratch_evictions += 1

    def scratch_stats(self) -> dict:
        """Scratch-pool health: ``hits``/``misses``/``evictions`` are
        cumulative across the state's lifetime; ``buffers``/``bytes_held``
        describe what the pool currently retains."""
        return {
            "hits": self._scratch_hits,
            "misses": self._scratch_misses,
            "evictions": self._scratch_evictions,
            "buffers": len(self._scratch),
            "bytes_held": self._scratch_bytes,
        }

    def clear_scratch(self) -> None:
        """Drop every retained buffer (cohort membership changes call this:
        the slab shape changed, so pooled buffers can never be served again)."""
        self._scratch.clear()
        self._scratch_bytes = 0

    def clear_round(self) -> None:
        """Drop per-round scratch (pooled sets, measurement, estimate)."""
        self.measurement = None
        self.control = None
        self.estimate = None
        self.pooled_states = None
        self.pooled_logw = None
        self.round_ess = None
        self.round_mass_share = None
        self.resampled_mask = None
        self.healthy = False
        self.kernel_events = []

    # -- snapshot accessors for hooks -----------------------------------------
    @property
    def initialized(self) -> bool:
        return self.states is not None

    @property
    def n_filters(self) -> int:
        if self.states is None:
            return 0
        return self.states.shape[0]

    @property
    def n_particles(self) -> int:
        if self.states is None:
            return 0
        return self.states.shape[1]

    @property
    def ragged(self) -> bool:
        """True when at least one sub-filter is narrower than the padding."""
        return self.widths is not None and bool(
            (self.widths != self.states.shape[1]).any())

    @property
    def live_particles(self) -> int:
        """Total live particles across sub-filters (excludes padding)."""
        if self.states is None:
            return 0
        if self.widths is None:
            return self.states.shape[0] * self.states.shape[1]
        return int(self.widths.sum())

    def effective_widths(self) -> np.ndarray:
        """The ``(F,)`` width vector, materializing full rows when unset."""
        if self.widths is not None:
            return self.widths
        return np.full(self.n_filters, self.n_particles, dtype=np.int64)

    def population(self) -> tuple[np.ndarray, np.ndarray]:
        """The live ``(states, log_weights)`` arrays (views, not copies)."""
        return self.states, self.log_weights

    # -- checkpoint serialization ----------------------------------------------
    def to_checkpoint(self) -> tuple[dict, dict]:
        """``(arrays, meta)`` capturing the durable filtering state.

        Per-round scratch (measurement, pooled sets, kernel events, buffer
        pool) is deliberately excluded: checkpoints are taken at step
        boundaries, where scratch is dead by contract.
        """
        if self.states is None:
            raise ValueError("cannot checkpoint an uninitialized FilterState")
        arrays = {"states": self.states, "log_weights": self.log_weights}
        if self.widths is not None:
            arrays["widths"] = self.widths
        if self.last_estimate is not None:
            arrays["last_estimate"] = np.asarray(self.last_estimate)
        meta = {"k": int(self.k), "heal_counters": dict(self.heal_counters)}
        if any(self.alloc_counters.values()):
            meta["alloc_counters"] = dict(self.alloc_counters)
        return arrays, meta

    def restore_checkpoint(self, arrays: dict, meta: dict) -> None:
        """Install a checkpointed population; inverse of :meth:`to_checkpoint`.

        Schema-v1 checkpoints carry no ``widths`` array: the population is
        the classic fixed-width layout and ``widths`` stays ``None``.
        """
        widths = arrays.get("widths")
        self.reset(np.ascontiguousarray(arrays["states"]),
                   np.ascontiguousarray(arrays["log_weights"]),
                   widths=None if widths is None else np.ascontiguousarray(widths))
        self.k = int(meta["k"])
        self.heal_counters = {k: int(v) for k, v in meta["heal_counters"].items()}
        if "alloc_counters" in meta:
            self.alloc_counters = {k: int(v) for k, v in meta["alloc_counters"].items()}
        if "last_estimate" in arrays:
            self.last_estimate = np.asarray(arrays["last_estimate"])

    def snapshot(self) -> "FilterState":
        """A deep copy safe to retain across stages (for hooks/debugging)."""
        out = FilterState(
            states=None if self.states is None else self.states.copy(),
            log_weights=None if self.log_weights is None else self.log_weights.copy(),
            k=self.k,
            heal_counters=dict(self.heal_counters),
            last_estimate=None if self.last_estimate is None else np.array(self.last_estimate),
            widths=None if self.widths is None else self.widths.copy(),
            alloc_counters=dict(self.alloc_counters),
        )
        return out
