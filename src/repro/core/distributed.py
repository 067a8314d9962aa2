"""The distributed particle filter (Algorithm 2) — the paper's contribution.

A network of ``N`` small sub-filters of ``m`` particles each. Every round,
each sub-filter independently samples, weights, sorts its particles, and then
exchanges its best ``t`` particles with its topological neighbours before
resampling *locally* from the pooled (own + received) weighted set. All
operations are local to a sub-filter except the neighbour exchange and the
final estimate reduction, which is what makes the design scale with core
count instead of core size.

This class is a thin façade over one :class:`~repro.engine.round.Round`,
which :class:`SoloFilter` shares with the loop oracle: the round runs the
vectorized stage implementations in :mod:`repro.engine.vector_stages` (or
their fused form) — every kernel operates on the full
``(n_filters, m, state_dim)`` population in batched NumPy, the same shape as
the paper's one-work-group-per-sub-filter device kernels. Timing attaches as
a :class:`~repro.engine.hooks.TimerHook` rather than inline code; further
observers (device cost accounting, resilience monitoring) hook into
``self.pipeline`` the same way.
"""

from __future__ import annotations

import os

import numpy as np

from repro.allocation import make_allocation_policy
from repro.core.estimator import local_estimates
from repro.core.parameters import DistributedFilterConfig
from repro.engine import vector_stages
from repro.engine.round import Round
from repro.models.base import StateSpaceModel
from repro.prng.streams import NumpyRNG, make_rng
from repro.topology import resolve_topology


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _arm_lookahead(rng, tracer) -> None:
    """Arm *rng*'s normal-draw lookahead where it can pay: a plain
    :class:`NumpyRNG` with a second CPU for the helper thread to draw on.
    The lookahead itself runs only draws of at least
    :data:`~repro.prng.streams.LOOKAHEAD_MIN_DRAWS` values ahead."""
    if type(rng) is NumpyRNG and _usable_cpus() >= 2:
        rng.arm_lookahead(tracer=tracer)


class SoloFilter:
    """A whole filter in one process: one :class:`~repro.engine.round.Round`
    over the full population, stepped, checkpointed and inspected here.

    Subclasses choose only the round's stage family, how the prior is
    drawn, and the backend tag their checkpoints carry. ``tracer`` is an
    optional shared :class:`~repro.telemetry.Tracer` (a private disabled
    one by default). ``lookahead=False`` keeps every normal draw on the
    round's thread (see :class:`~repro.prng.streams.Lookahead`); the
    session scheduler builds its solo filters so, since a manager may hold
    many and each armed one would keep a draw in flight.
    """

    #: the checkpoint's ``backend`` tag; a snapshot loads only into its own.
    backend = "vectorized"
    #: the round's stage family: ``"vector"`` or ``"loop"``.
    stages = "vector"
    #: draw the prior one sub-filter at a time instead of in one flat call.
    per_filter_prior = False

    def __init__(self, model: StateSpaceModel, config: DistributedFilterConfig | None = None,
                 tracer=None, *, lookahead: bool = True):
        self.model = model
        self.config = cfg = config or DistributedFilterConfig()
        self.topology = resolve_topology(cfg.topology, cfg.n_filters)
        self._table = self.topology.neighbor_table()
        self._mask = self._table >= 0
        self.alloc_policy = make_allocation_policy(cfg)
        rng = make_rng(cfg.rng, cfg.seed)
        rnd = self._round = Round(
            model, cfg, rng, stages=self.stages, owner=self,
            tracer=tracer, topology=self.topology, table=self._table, mask=self._mask,
            alloc_policy=self.alloc_policy)
        if lookahead:
            _arm_lookahead(rng, rnd.tracer)
        self.timer, self.rng, self.tracer = rnd.timer, rnd.rng, rnd.tracer
        self.resampler, self.policy = rnd.resampler, rnd.policy
        self.dtype_policy, self.dtype = rnd.dtype_policy, rnd.dtype
        self._state, self._ctx = rnd.state, rnd.ctx
        self.kernel_hook, self.pipeline = rnd.kernel_hook, rnd.pipeline

    @property
    def telemetry_errors(self) -> int:
        """Hook/exporter callbacks that raised and were isolated."""
        return self.pipeline.telemetry_errors

    @property
    def kernel_seconds(self) -> dict[str, float]:
        """Cumulative wall time of registered kernels dispatched this run."""
        return self.kernel_hook.kernel_seconds

    # -- state delegation ------------------------------------------------------
    # The population lives in the engine's FilterState; these properties keep
    # the long-standing public attribute surface (and the related-work
    # subclasses that assign to it) working unchanged.
    @property
    def states(self) -> np.ndarray | None:  # (F, m, d)
        return self._state.states

    @states.setter
    def states(self, value) -> None:
        self._state.states = value

    @property
    def log_weights(self) -> np.ndarray | None:  # (F, m)
        return self._state.log_weights

    @log_weights.setter
    def log_weights(self, value) -> None:
        self._state.log_weights = value

    @property
    def k(self) -> int:
        return self._state.k

    @property
    def last_estimate(self) -> np.ndarray | None:
        return self._state.last_estimate

    @property
    def heal_counters(self) -> dict[str, int]:
        """Numerical self-healing counters: particles masked for non-finite
        weight/state, and sub-filters rejuvenated after total degeneracy."""
        return self._state.heal_counters

    @property
    def widths(self) -> np.ndarray | None:
        """Per-sub-filter live widths ``m_i`` (``None`` under fixed layout)."""
        return self._state.widths

    @property
    def live_particles(self) -> int:
        """Total live particles across sub-filters (excludes padding)."""
        return self._state.live_particles

    # -- lifecycle ----------------------------------------------------------
    def initialize(self) -> None:
        """Draw every sub-filter's population from the model prior."""
        self._round.initialize(per_filter=self.per_filter_prior)

    def step(self, measurement: np.ndarray, control: np.ndarray | None = None) -> np.ndarray:
        """One distributed filtering round; returns the global estimate."""
        if self._state.states is None:
            self.initialize()
        return self.pipeline.run(self._ctx, self._state, measurement, control)

    # -- checkpoint / restore ---------------------------------------------------
    def save_checkpoint(self, path: str) -> dict:
        """Atomically write a snapshot resumable bit-identically; see
        :mod:`repro.resilience.checkpoint` for the format and guarantees."""
        from repro.resilience.checkpoint import save_filter_checkpoint

        return save_filter_checkpoint(self, path, backend=self.backend)

    def load_checkpoint(self, path: str) -> dict:
        """Restore a :meth:`save_checkpoint` snapshot (population + RNG +
        step counter); the next :meth:`step` continues the original trace."""
        from repro.resilience.checkpoint import load_filter_checkpoint

        return load_filter_checkpoint(self, path, backend=self.backend)


class DistributedParticleFilter(SoloFilter):
    """Algorithm 2 over an exchange topology.

    Parameters
    ----------
    model:
        the dynamical system (vectorized over leading batch dims).
    config:
        the (m, N, X, t, ...) parameter set; see
        :class:`~repro.core.parameters.DistributedFilterConfig`.
    tracer:
        optional shared :class:`~repro.telemetry.Tracer`.
    """

    # -- kernels --------------------------------------------------------------
    # Default bodies live in repro.engine.vector_stages; these thin methods
    # are the override points the related-work variants
    # (repro.baselines.distributed_variants) subclass.
    def _heal_population(self) -> None:
        vector_stages.heal_population(self._ctx, self._state)

    def _top_t(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        return vector_stages.top_t(self._ctx, self._state, t)

    def _exchange(self) -> tuple[np.ndarray, np.ndarray]:
        return vector_stages.exchange_pool(self._ctx, self._state)

    def _resample(self, pooled_states: np.ndarray, pooled_logw: np.ndarray) -> None:
        self._state.pooled_states = pooled_states
        self._state.pooled_logw = pooled_logw
        vector_stages.resample(self._ctx, self._state)

    # -- introspection ---------------------------------------------------------
    def weight_mass_share(self) -> np.ndarray:
        """Each sub-filter's share of the global weight mass, shape (F,)."""
        from repro.allocation import weight_mass_share

        return weight_mass_share(self.log_weights)

    @property
    def n_filters(self) -> int:
        return self.config.n_filters

    @property
    def total_particles(self) -> int:
        return self.config.total_particles

    def local_estimates(self) -> np.ndarray:
        """Per-sub-filter estimates, shape ``(n_filters, state_dim)``."""
        return local_estimates(self.states, self.log_weights, self.config.estimator)

    def ess_per_filter(self) -> np.ndarray:
        from repro.resampling import effective_sample_size

        w = np.exp(self.log_weights - self.log_weights.max(axis=1, keepdims=True))
        return effective_sample_size(w, axis=1)
