"""Loop-based reference implementations of the Algorithm 2 stages.

Every operation is written per sub-filter, per particle, exactly following
the paper's pseudocode — no batching, no clever indexing. These stages
implement the same :class:`~repro.engine.stage.Stage` protocol and stage
names as the vectorized kernels, so the sequential oracle runs through the
very same :class:`~repro.engine.pipeline.StepPipeline` (and therefore gets
the same per-stage timing/observability) while remaining an independent,
deliberately naive implementation to validate the optimized one against.

Config parity: the loop stages implement ``frim_redraws``, ``roughening``
and ``exchange_select="sample"`` — previously the oracle silently ignored
them and diverged from the vectorized filter.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimator import global_estimate
from repro.engine.stage import ExecutionContext
from repro.engine.state import FilterState


class LoopSampleWeightStage:
    """Sample and weight, one particle at a time (Algorithm 2 lines 3-7)."""

    name = "sampling"

    def run(self, ctx: ExecutionContext, state: FilterState) -> None:
        cfg = ctx.config
        if cfg.frim_redraws > 0:
            self._run_frim(ctx, state)
            return
        widths = state.effective_widths()
        for f in range(cfg.n_filters):
            # Only the live region is propagated; padded slots keep their
            # (real, copied) states and stay at -inf weight.
            for i in range(int(widths[f])):
                state.states[f, i] = ctx.model.transition(
                    state.states[f, i], state.control, state.k, ctx.rng
                )
                state.log_weights[f, i] += float(
                    ctx.model.log_likelihood(state.states[f, i][None, :], state.measurement, state.k)[0]
                )

    def _run_frim(self, ctx: ExecutionContext, state: FilterState) -> None:
        """FRIM sampling, per particle: bounded redraws keeping the best.

        Mirrors :func:`repro.core.frim.frim_sample` — the per-sub-filter
        threshold is the q-quantile of the first draw's log-likelihoods, and
        only particles below it are eligible for replacement.
        """
        cfg = ctx.config
        for f in range(cfg.n_filters):
            prev = state.states[f].copy()
            ll = np.empty(cfg.n_particles)
            for i in range(cfg.n_particles):
                state.states[f, i] = ctx.model.transition(prev[i], state.control, state.k, ctx.rng)
                ll[i] = float(
                    ctx.model.log_likelihood(state.states[f, i][None, :], state.measurement, state.k)[0]
                )
            thresh = float(np.quantile(ll, cfg.frim_quantile))
            for _ in range(cfg.frim_redraws):
                below = [i for i in range(cfg.n_particles) if ll[i] < thresh]
                if not below:
                    break
                for i in below:
                    cand = ctx.model.transition(prev[i], state.control, state.k, ctx.rng)
                    cand_ll = float(
                        ctx.model.log_likelihood(cand[None, :], state.measurement, state.k)[0]
                    )
                    if cand_ll > ll[i]:
                        state.states[f, i] = cand
                        ll[i] = cand_ll
            for i in range(cfg.n_particles):
                state.log_weights[f, i] += ll[i]


class LoopHealStage:
    """Per-sub-filter numerical self-healing, straight from the definition."""

    name = "heal"

    def run(self, ctx: ExecutionContext, state: FilterState) -> None:
        if not ctx.config.self_heal:
            return
        F, m = state.log_weights.shape
        for f in range(F):
            for i in range(m):
                unusable = np.isnan(state.log_weights[f, i]) or not np.isfinite(state.states[f, i]).all()
                if unusable and not np.isneginf(state.log_weights[f, i]):
                    state.log_weights[f, i] = -np.inf
                    state.heal_counters["sanitized"] += 1
        alive = [f for f in range(F) if np.isfinite(state.log_weights[f]).any()]
        for f in range(F):
            if np.isfinite(state.log_weights[f]).any():
                continue
            donors = [q for q in ctx.topology.neighbors(f) if q in alive]
            if donors:
                state.states[f] = state.states[donors[0]]
            elif alive:
                state.states[f] = state.states[alive[0]]
            ok = np.isfinite(state.states[f]).all(axis=-1)
            state.log_weights[f] = np.where(ok, 0.0, -np.inf) if ok.any() else 0.0
            if state.widths is not None:
                # The rejuvenated row keeps its own live width.
                state.log_weights[f, int(state.widths[f]):] = -np.inf
            state.heal_counters["rejuvenated"] += 1


class LoopSortStage:
    """Sort each sub-filter by weight, descending (line 8)."""

    name = "sort"

    def run(self, ctx: ExecutionContext, state: FilterState) -> None:
        for f in range(ctx.config.n_filters):
            # One row at a time through the registered sort kernel — the
            # same stable descending argsort the vectorized stage uses.
            order = ctx.invoke_kernel(state, "sort", state.log_weights[f][None, :], rows=1)[0]
            state.states[f] = state.states[f][order]
            state.log_weights[f] = state.log_weights[f][order]


class LoopEstimateStage:
    """Global estimate (line 9): local reductions then the global reduction."""

    name = "estimate"

    def run(self, ctx: ExecutionContext, state: FilterState) -> None:
        state.estimate = global_estimate(state.states, state.log_weights, ctx.config.estimator)
        state.last_estimate = state.estimate


class LoopExchangeStage:
    """Exchange with neighbours (lines 10-14).

    Collects everyone's contribution against the pre-exchange state, then
    appends to the recipients. The pooled slots hold, per sub-filter, a list
    of ``(state, log_weight)`` tuples.
    """

    name = "exchange"

    def _contribution(self, ctx, state, f, t) -> list[tuple[np.ndarray, float]]:
        """Sub-filter *f*'s sent particles: top-t or weight-sampled t."""
        if ctx.config.exchange_select == "sample":
            w = np.exp(state.log_weights[f] - state.log_weights[f].max())
            idx = ctx.resampler.resample(w, t, ctx.rng)
            return [(state.states[f, int(i)].copy(), float(state.log_weights[f, int(i)])) for i in idx]
        # Rows are sorted descending: the first t are the best.
        return [(state.states[f, i].copy(), float(state.log_weights[f, i])) for i in range(t)]

    def run(self, ctx: ExecutionContext, state: FilterState) -> None:
        cfg = ctx.config
        t = cfg.n_exchange
        incoming: list[list[tuple[np.ndarray, float]]] = [[] for _ in range(cfg.n_filters)]
        if t > 0:
            if ctx.topology.pooled:
                contributions = []
                for f in range(cfg.n_filters):
                    contributions += self._contribution(ctx, state, f, t)
                contributions.sort(key=lambda p: -p[1])
                best = contributions[:t]
                for f in range(cfg.n_filters):
                    incoming[f] += [(s.copy(), w) for s, w in best]
            else:
                for f in range(cfg.n_filters):
                    sent = self._contribution(ctx, state, f, t)
                    for q in ctx.topology.neighbors(f):
                        incoming[q] += [(s.copy(), w) for s, w in sent]
        state.pooled_states = [[s for s, _ in inc] for inc in incoming]
        state.pooled_logw = [[w for _, w in inc] for inc in incoming]


class LoopResampleStage:
    """Local resampling from the pooled set (lines 15-19), plus roughening."""

    name = "resample"

    def run(self, ctx: ExecutionContext, state: FilterState) -> None:
        cfg = ctx.config
        if cfg.roughening > 0.0:
            # Jitter scale from the pre-resample population's per-dimension
            # sample range (Gordon, Salmond & Smith 1993).
            d = ctx.model.state_dim
            flat = state.states.reshape(-1, d)
            span = (flat.max(axis=0) - flat.min(axis=0)).astype(np.float64)
            scale = cfg.roughening * span * cfg.total_particles ** (-1.0 / d)
        self._capture_metrics(state)
        widths = state.effective_widths()
        resampled = np.zeros(cfg.n_filters, dtype=bool)
        for f in range(cfg.n_filters):
            m_f = int(widths[f])
            logw = state.log_weights[f]
            w_local = np.exp(logw - logw.max())
            if not bool(ctx.policy.should_resample(
                    w_local[None, :], ctx.rng, widths=np.array([m_f]))[0]):
                continue
            resampled[f] = True
            inc_states = state.pooled_states[f] if state.pooled_states else []
            inc_logw = state.pooled_logw[f] if state.pooled_logw else []
            pool_states = list(state.states[f]) + list(inc_states)
            pool_logw = np.concatenate([logw, np.asarray(inc_logw)]) if inc_logw else logw
            w = np.exp(pool_logw - pool_logw.max())
            idx = ctx.resampler.resample(w, m_f, ctx.rng)
            new_states = np.stack([pool_states[i] for i in idx]).astype(state.states.dtype)
            if cfg.roughening > 0.0:
                jitter = ctx.rng.normal(new_states.shape, dtype=np.float64) * scale
                new_states = new_states + jitter.astype(new_states.dtype)
            state.states[f, :m_f] = new_states
            state.log_weights[f, :m_f] = 0.0
            state.log_weights[f, m_f:] = -np.inf
            # Leave the full candidate set behind for the allocation stage:
            # a growing row draws its new slots from this pool.
            if state.pooled_states is not None:
                state.pooled_states[f] = pool_states
                state.pooled_logw[f] = pool_logw
        state.resampled_mask = resampled

    @staticmethod
    def _capture_metrics(state: FilterState) -> None:
        """Pre-resample ESS / weight-mass share for the allocation stage."""
        from repro.allocation.metrics import subfilter_ess, weight_mass_share

        state.round_ess = subfilter_ess(state.log_weights)
        state.round_mass_share = weight_mass_share(state.log_weights)


def build_loop_pipeline(hooks=()) -> "StepPipeline":
    """The full loop-based (oracle) round as an ordered stage list.

    The allocation stage is the shared (array-level) implementation — width
    apportionment is a per-sub-filter decision with no per-particle inner
    loop, so there is nothing to write more naively.
    """
    from repro.engine.pipeline import StepPipeline
    from repro.engine.vector_stages import AllocationStage

    return StepPipeline(
        [LoopSampleWeightStage(), LoopHealStage(), LoopSortStage(),
         LoopEstimateStage(), LoopExchangeStage(), LoopResampleStage(),
         AllocationStage()],
        hooks=hooks,
    )
