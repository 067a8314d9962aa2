"""Vectorized (batched-NumPy) implementations of the Algorithm 2 stages.

These are the canonical kernel bodies: every operation runs on the full
``(n_filters, m, state_dim)`` population at once, the same shape as the
paper's one-work-group-per-sub-filter device kernels. The stage classes
dispatch through ``ctx.owner``'s legacy kernel methods when the owner
provides them, which keeps the related-work subclasses
(:mod:`repro.baselines.distributed_variants`) overriding ``_exchange`` /
``_resample`` / ``_heal_population`` working unchanged; contexts without an
owner (multiprocess workers) run the module-level kernel functions directly.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.core.estimator import global_estimate
from repro.engine.stage import ExecutionContext
from repro.engine.state import FilterState
from repro.utils.arrays import (
    degenerate_rows,
    healthy_round,
    rescue_degenerate_rows,
    sanitize_log_weights,
)


def _row_scope(rng, rows):
    """Scope a row-striped RNG to a row subset; no-op for plain RNGs.

    Row-subset draws (the masked resample path) must consume only the
    affected rows' streams when the RNG stripes draws per row — that is
    what keeps per-sub-filter streams shard-invariant. Plain generators
    (every pre-shard golden trace) take the exact same path as before.
    """
    scope = getattr(rng, "scoped_rows", None)
    if scope is None:
        return nullcontext(rng)
    return scope(rows)

# ---------------------------------------------------------------------------
# Kernel bodies
# ---------------------------------------------------------------------------


def sample_weight(ctx: ExecutionContext, state: FilterState) -> None:
    """Sampling + importance weighting (one fused kernel in the paper).

    With ``frim_redraws > 0`` the FRIM strategy of related work [19] keeps
    each particle's best of a bounded number of draws.
    """
    cfg = ctx.config
    if cfg.frim_redraws > 0:
        from repro.core.frim import frim_sample

        state.states, loglik = frim_sample(
            ctx.model, state.states, state.measurement, state.control, state.k, ctx.rng,
            redraws=cfg.frim_redraws, quantile=cfg.frim_quantile,
        )
        state.states = state.states.astype(ctx.dtype, copy=False)
    else:
        state.states = ctx.model.transition(state.states, state.control, state.k, ctx.rng)
        loglik = ctx.model.log_likelihood(state.states, state.measurement, state.k)
    np.add(state.log_weights, loglik, out=state.log_weights)
    if state.ragged:
        # Padded slots stay at exactly -inf even if the model emitted a NaN
        # log-likelihood for their (copied) states.
        from repro.allocation.migrate import apply_width_mask

        apply_width_mask(state.log_weights, state.widths)


def heal_population(ctx: ExecutionContext, state: FilterState) -> None:
    """Numerical self-healing after weighting (docs/robustness.md).

    NaN log-weights and particles whose state went non-finite are masked to
    ``-inf`` (zero mass). A sub-filter left with *no* finite weight is
    rejuvenated by cloning a live topological neighbour's particles and
    restarting on uniform weights — the paper's exchange primitive reused as
    a recovery primitive. Deterministic (no RNG draws), so a healthy run is
    bit-identical with healing on or off.
    """
    if healthy_round(state.log_weights, state.states):
        return  # nothing to mask and no row without a finite weight
    n_bad = sanitize_log_weights(state.log_weights, state.states)
    if n_bad:
        state.heal_counters["sanitized"] += n_bad
    dead = degenerate_rows(state.log_weights)
    if not dead.any():
        return
    alive = ~dead
    table, mask = ctx.table, ctx.mask
    for f in np.flatnonzero(dead):
        donors = table[f][mask[f]]
        donors = donors[alive[donors]]
        if donors.size:
            state.states[f] = state.states[int(donors[0])]
        elif alive.any():
            state.states[f] = state.states[int(np.flatnonzero(alive)[0])]
        # else: every sub-filter is degenerate — keep own states and
        # restart all of them on uniform weights.
        ok = np.isfinite(state.states[f]).all(axis=-1)
        state.log_weights[f] = np.where(ok, 0.0, -np.inf) if ok.any() else 0.0
        if state.widths is not None:
            # The rejuvenated row keeps its own live width; the donor's
            # particles beyond it are padding again.
            state.log_weights[f, int(state.widths[f]):] = -np.inf
        state.heal_counters["rejuvenated"] += 1


def heal_local(ctx: ExecutionContext, state: FilterState) -> None:
    """Topology-free self-healing for a worker's local block.

    Without neighbour access, fully-degenerate rows restart on uniform
    weights; fresh neighbour particles arrive through the exchange boundary,
    completing the rejuvenation.
    """
    if healthy_round(state.log_weights, state.states):
        return
    state.heal_counters["sanitized"] += sanitize_log_weights(state.log_weights, state.states)
    rescued = rescue_degenerate_rows(state.log_weights, state.states)
    state.heal_counters["rejuvenated"] += rescued
    if rescued and state.ragged:
        # Rejuvenation restarts whole rows on uniform weight; their padded
        # slots must drop back to zero mass.
        from repro.allocation.migrate import apply_width_mask

        apply_width_mask(state.log_weights, state.widths)


def sort_by_weight(ctx: ExecutionContext, state: FilterState) -> None:
    """Local sort by weight, descending (the paper's bitonic sort kernel).

    Dispatched through the kernel registry; the registered batch form is the
    stable descending argsort, so the permutation — and the golden traces —
    are bit-identical to a direct ``np.argsort`` call.
    """
    order = ctx.invoke_kernel(state, "sort", state.log_weights)
    F, m = state.log_weights.shape
    d = state.states.shape[-1]
    # Gather through flat indices into recycled scratch: same permutation as
    # take_along_axis (bit-identical), but zero allocations in steady state.
    flat = state.scratch("sort.flat", (F, m), np.intp)
    np.add(order, np.arange(F, dtype=np.intp).reshape(F, 1) * m, out=flat, casting="unsafe")
    new_logw = state.scratch("sort.logw", (F, m), state.log_weights.dtype)
    np.take(state.log_weights.reshape(-1), flat, out=new_logw)
    new_states = state.scratch("sort.states", (F, m, d), state.states.dtype)
    np.take(
        np.ascontiguousarray(state.states).reshape(F * m, d), flat, axis=0, out=new_states
    )
    # Ping-pong: the old live arrays become next round's scratch, so the
    # gather above never reads and writes the same buffer.
    state.recycle("sort.logw", state.log_weights)
    state.recycle("sort.states", state.states)
    state.log_weights = new_logw
    state.states = new_states


def estimate(ctx: ExecutionContext, state: FilterState) -> None:
    """Global estimate: local reduction then global reduction."""
    state.estimate = global_estimate(state.states, state.log_weights, ctx.config.estimator)
    state.last_estimate = state.estimate


def top_t(ctx: ExecutionContext, state: FilterState, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Each sub-filter's t best (or weight-sampled) particles."""
    cfg = ctx.config
    if cfg.exchange_select == "sample":
        w = np.exp(state.log_weights - state.log_weights.max(axis=1, keepdims=True))
        sel = ctx.resampler.resample_batch(w, t, ctx.rng)  # (F, t)
    elif cfg.selection == "sort":
        # Rows are already sorted descending.
        F = cfg.n_filters
        sel = np.broadcast_to(np.arange(t), (F, t))
    else:
        # Local-max selection: argpartition the t best, then order them.
        m = state.log_weights.shape[1]
        part = np.argpartition(-state.log_weights, min(t, m - 1), axis=1)[:, :t]
        part_w = np.take_along_axis(state.log_weights, part, axis=1)
        inner = np.argsort(-part_w, axis=1)
        sel = np.take_along_axis(part, inner, axis=1)
    send_states = np.take_along_axis(state.states, sel[:, :, None], axis=1)
    send_logw = np.take_along_axis(state.log_weights, sel, axis=1)
    return send_states, send_logw


def exchange_pool(ctx: ExecutionContext, state: FilterState) -> tuple[np.ndarray, np.ndarray]:
    """Pool each sub-filter's particles with its neighbours' contributions."""
    cfg = ctx.config
    t = cfg.n_exchange
    if t == 0 or ctx.table.shape[1] == 0:
        return state.states, state.log_weights
    send_states, send_logw = top_t(ctx, state, t)

    F, m = state.log_weights.shape
    d = state.states.shape[-1]
    if ctx.topology.pooled:
        # All-to-All: a global pool; everyone reads back the same t best.
        recv_states, recv_logw = ctx.invoke_kernel(
            state, "route_pooled", send_states, send_logw, t
        )
    else:
        # Pairwise: gather each neighbour's sent particles straight into
        # recycled scratch (the kernel honours ``out=``).
        width = ctx.table.shape[1] * t
        recv_states, recv_logw = ctx.invoke_kernel(
            state, "route_pairwise", send_states, send_logw, ctx.table, ctx.mask,
            out_states=state.scratch("exch.recv_states", (F, width, d), send_states.dtype),
            out_logw=state.scratch("exch.recv_logw", (F, width), send_logw.dtype),
        )

    # Pool = [own | received], assembled in reusable buffers instead of a
    # fresh np.concatenate pair every round.
    width = recv_logw.shape[1]
    pooled_states = state.scratch("exch.pooled_states", (F, m + width, d), state.states.dtype)
    pooled_states[:, :m] = state.states
    pooled_states[:, m:] = recv_states
    pooled_logw = state.scratch("exch.pooled_logw", (F, m + width),
                                state.log_weights.dtype)
    pooled_logw[:, :m] = state.log_weights
    pooled_logw[:, m:] = recv_logw
    return pooled_states, pooled_logw


def _capture_alloc_metrics(state: FilterState, local_w: np.ndarray,
                           local_peak: np.ndarray) -> None:
    """Stash pre-resample ESS and weight-mass share on the state.

    Resampling resets the live weights, so the allocation stage (and the
    allocation telemetry hook) must read these here. Pure reductions over
    arrays the resample stage already materialized — no RNG, no mutation —
    so golden traces are untouched.
    """
    w = np.where(np.isfinite(local_w), local_w, 0.0)
    s1 = w.sum(axis=1)
    s2 = np.einsum("fm,fm->f", w, w)
    with np.errstate(invalid="ignore", divide="ignore"):
        state.round_ess = np.where(s2 > 0.0, (s1 * s1) / np.where(s2 > 0.0, s2, 1.0), 0.0)
        lse = np.where(s1 > 0.0, local_peak[:, 0] + np.log(np.where(s1 > 0.0, s1, 1.0)),
                       -np.inf)
    g = lse.max()
    if np.isfinite(g):
        share = np.exp(lse - g)
        state.round_mass_share = share / share.sum()
    else:
        state.round_mass_share = np.full(lse.shape, 1.0 / max(lse.shape[0], 1))


def resample(ctx: ExecutionContext, state: FilterState) -> None:
    """Resample each flagged sub-filter down to m particles from its pool."""
    cfg = ctx.config
    pooled_states, pooled_logw = state.pooled_states, state.pooled_logw
    row_max = pooled_logw.max(axis=1, keepdims=True)
    w = state.scratch("res.w", pooled_logw.shape, np.float64)
    np.subtract(pooled_logw, row_max, out=w)
    np.exp(w, out=w)  # padded -inf entries become 0
    local_w = state.scratch("res.local_w", state.log_weights.shape, np.float64)
    local_peak = state.log_weights.max(axis=1, keepdims=True)
    np.subtract(state.log_weights, local_peak, out=local_w)
    np.exp(local_w, out=local_w)
    _capture_alloc_metrics(state, local_w, local_peak)
    mask = ctx.policy.should_resample(local_w, ctx.rng, widths=state.widths)
    state.resampled_mask = mask
    if not mask.any():
        return
    F, m = state.log_weights.shape
    d = state.states.shape[-1]

    def roughen(new_states: np.ndarray) -> np.ndarray:
        # Gordon/Salmond/Smith roughening: per-dimension jitter scaled by
        # the population's sample range and n^(-1/d) — restores diversity
        # lost to resampling duplicates (sample impoverishment).
        span = (
            state.states.reshape(-1, d).max(axis=0) - state.states.reshape(-1, d).min(axis=0)
        ).astype(np.float64)
        scale = cfg.roughening * span * cfg.total_particles ** (-1.0 / d)
        jitter = ctx.rng.normal(new_states.shape, dtype=np.float64) * scale
        np.add(new_states, jitter.astype(new_states.dtype, copy=False), out=new_states)
        return new_states

    if mask.all():
        # Fast path (the "always" policy): every row resamples, so gather
        # through flat indices into recycled scratch — no fancy-index copies
        # of the pooled set and no per-round allocations.
        idx = ctx.resampler.resample_batch(w, m, ctx.rng)  # (F, m)
        pool_m = pooled_logw.shape[1]
        flat = state.scratch("res.flat", (F, m), np.intp)
        np.add(
            idx, np.arange(F, dtype=np.intp).reshape(F, 1) * pool_m, out=flat,
            casting="unsafe",
        )
        new_states = state.scratch("res.states", (F, m, d), state.states.dtype)
        np.take(
            np.ascontiguousarray(pooled_states).reshape(F * pool_m, d), flat, axis=0,
            out=new_states,
        )
        if cfg.roughening > 0.0:
            new_states = roughen(new_states)
        state.recycle("res.states", state.states)
        state.states = new_states
        state.log_weights.fill(0.0)
        if state.ragged:
            from repro.allocation.migrate import apply_width_mask

            apply_width_mask(state.log_weights, state.widths)
        return

    with _row_scope(ctx.rng, np.flatnonzero(mask)):
        idx = ctx.resampler.resample_batch(w[mask], m, ctx.rng)  # (F', m)
        new_states = np.take_along_axis(pooled_states[mask], idx[:, :, None], axis=1)
        if cfg.roughening > 0.0:
            new_states = roughen(new_states)
    state.states[mask] = new_states
    state.log_weights[mask] = 0.0
    if state.ragged:
        from repro.allocation.migrate import apply_width_mask

        apply_width_mask(state.log_weights, state.widths)


def allocate(ctx: ExecutionContext, state: FilterState) -> None:
    """Re-apportion particle widths across sub-filters (post-resample).

    Under the fixed policy (or with no policy attached) this returns
    immediately without touching state, weights or RNG — the bit-parity
    contract. Adaptive policies decide new widths from the pre-resample
    metrics the resample stage stashed, then migrate particles: growth slots
    are drawn from the round's pooled candidate set (own + received — the
    exchange plumbing) where available, so new particles arrive through the
    topology.
    """
    policy = getattr(ctx, "alloc_policy", None)
    if policy is None or policy.name == "fixed":
        return
    if state.round_ess is None or state.round_mass_share is None:
        return
    widths = state.effective_widths()
    new_widths = policy.decide(widths, state.round_ess, state.round_mass_share)
    if np.array_equal(new_widths, widths):
        state.widths = np.asarray(widths, dtype=np.int64)
        return
    resampled = state.resampled_mask
    if resampled is None:
        resampled = np.zeros(state.n_filters, dtype=bool)
    pooled_states, pooled_logw = state.pooled_states, state.pooled_logw
    migrated = ctx.invoke_kernel(
        state, "migrate_resize", state.states, state.log_weights,
        widths, new_widths, pooled_states, pooled_logw, resampled,
        ctx.resampler, ctx.rng,
    )
    state.widths = np.asarray(new_widths, dtype=np.int64)
    state.alloc_counters["particles_migrated"] += int(migrated)
    state.alloc_counters["width_changes"] += int((new_widths != widths).sum())


# ---------------------------------------------------------------------------
# Stage classes
# ---------------------------------------------------------------------------


class SampleWeightStage:
    """Propagate every particle through the model and weight it."""

    name = "sampling"

    def run(self, ctx: ExecutionContext, state: FilterState) -> None:
        sample_weight(ctx, state)


class HealStage:
    """Neighbour-aware self-healing; skipped when ``config.self_heal`` is off."""

    name = "heal"

    def run(self, ctx: ExecutionContext, state: FilterState) -> None:
        if not ctx.config.self_heal:
            return
        owner = ctx.owner
        if owner is not None:
            owner._heal_population()
        else:
            heal_population(ctx, state)


class LocalHealStage:
    """Topology-free self-healing for worker blocks (always on)."""

    name = "heal"

    def run(self, ctx: ExecutionContext, state: FilterState) -> None:
        heal_local(ctx, state)


class SortStage:
    """Local sort by weight; a no-op under ``selection='max'`` unless forced.

    Multiprocess workers force the sort: their top-t boundary extraction is a
    plain slice of the sorted rows.
    """

    name = "sort"

    def __init__(self, force: bool = False):
        self.force = force

    def run(self, ctx: ExecutionContext, state: FilterState) -> None:
        if self.force or ctx.config.selection == "sort":
            sort_by_weight(ctx, state)


class EstimateStage:
    """Reduce the population to the global estimate."""

    name = "estimate"

    def run(self, ctx: ExecutionContext, state: FilterState) -> None:
        estimate(ctx, state)


class ExchangeStage:
    """Neighbour exchange -> per-sub-filter pooled candidate sets."""

    name = "exchange"

    def run(self, ctx: ExecutionContext, state: FilterState) -> None:
        owner = ctx.owner
        if owner is not None:
            state.pooled_states, state.pooled_logw = owner._exchange()
        else:
            state.pooled_states, state.pooled_logw = exchange_pool(ctx, state)


class ResampleStage:
    """Local resampling from the pooled weighted set."""

    name = "resample"

    def run(self, ctx: ExecutionContext, state: FilterState) -> None:
        owner = ctx.owner
        if owner is not None:
            owner._resample(state.pooled_states, state.pooled_logw)
        else:
            resample(ctx, state)


class AllocationStage:
    """Adaptive width re-apportionment; a strict no-op under ``fixed``."""

    name = "allocate"

    def run(self, ctx: ExecutionContext, state: FilterState) -> None:
        allocate(ctx, state)


def build_vector_pipeline(hooks=()) -> "StepPipeline":
    """The full vectorized round as an ordered stage list."""
    from repro.engine.pipeline import StepPipeline

    return StepPipeline(
        [SampleWeightStage(), HealStage(), SortStage(), EstimateStage(),
         ExchangeStage(), ResampleStage(), AllocationStage()],
        hooks=hooks,
    )
