"""Cohort-aware stage bodies: Algorithm 2 over ``R`` independent sessions.

A cohort slab stacks ``R`` sessions' populations into one
``(R * X, m, d)`` array and runs the standard vectorized pipeline over it.
Most stages are *already* block-local (every operation is per-row) and are
reused verbatim from :mod:`repro.engine.vector_stages`:

- ``sampling`` — the model is elementwise over leading dims (the
  ``supports_cohort_batch`` contract) and the striped RNG serves each
  session its own draws;
- ``sort`` — per-row argsort + gather;
- ``exchange`` — the neighbour table is block-diagonal, so routing never
  crosses a session boundary.

The stages below replace the ones whose reference bodies contain a *global*
reduction or decision that must become per-block to preserve the parity
contract (cohort-stepped ≡ solo-stepped, bit for bit):

- ``heal`` — the last-resort donor scan must stay inside the dead row's own
  block;
- ``estimate`` — one estimate per session block instead of one global one;
- ``resample`` — the weight-mass share normalizes per block, and the
  masked-subset resampler draw runs under :meth:`CohortRNG.scoped_rows`;
- ``allocate`` — each session's own (stateful) policy decides its block's
  widths, and migration draws delegate to that session's generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.estimator import _finite_fallback, weighted_mean_estimate
from repro.engine import vector_stages
from repro.engine.stage import ExecutionContext
from repro.engine.state import FilterState
from repro.utils.arrays import degenerate_rows, healthy_round


@dataclass
class CohortExecutionContext(ExecutionContext):
    """An :class:`ExecutionContext` carrying the per-tick session striping.

    ``cohort_sessions`` is the block-ordered list of sessions participating
    in the current tick (rebound every tick); ``cohort_block_rows`` is the
    per-session sub-filter count ``X`` (fixed per cohort). The fused kernel
    reads ``cohort_block_rows`` to stripe its estimate reduction.
    """

    cohort_sessions: list = None
    cohort_block_rows: int = 1


# ---------------------------------------------------------------------------
# Kernel bodies
# ---------------------------------------------------------------------------


def cohort_heal(ctx: CohortExecutionContext, state: FilterState) -> None:
    """Block-local numerical self-healing.

    Identical to :func:`repro.engine.vector_stages.heal_population` except
    that the no-neighbour-donor fallback scans only the dead row's own
    session block (the solo filter would only ever see its own rows), and
    the heal counters are attributed to the owning session as well as the
    slab. Deterministic — no RNG draws — so healthy rounds are untouched.
    """
    if healthy_round(state.log_weights, state.states):
        return
    X = ctx.cohort_block_rows
    sessions = ctx.cohort_sessions
    lw = state.log_weights
    bad = np.isnan(lw)
    bad |= ~np.isfinite(state.states).all(axis=-1)
    bad &= ~np.isneginf(lw)
    if bad.any():
        per_row = bad.sum(axis=1)
        lw[bad] = -np.inf
        per_block = per_row.reshape(-1, X).sum(axis=1)
        state.heal_counters["sanitized"] += int(per_row.sum())
        for j in np.flatnonzero(per_block):
            sessions[j].heal_counters["sanitized"] += int(per_block[j])
    dead = degenerate_rows(lw)
    if not dead.any():
        return
    alive = ~dead
    table, mask = ctx.table, ctx.mask
    for f in np.flatnonzero(dead):
        b = f // X
        lo = b * X
        donors = table[f][mask[f]]
        donors = donors[alive[donors]]
        block_alive = alive[lo:lo + X]
        if donors.size:
            state.states[f] = state.states[int(donors[0])]
        elif block_alive.any():
            state.states[f] = state.states[lo + int(np.flatnonzero(block_alive)[0])]
        # else: the whole block is degenerate — keep own states and restart
        # every row of it on uniform weights, exactly as the solo filter
        # does when its entire population dies.
        ok = np.isfinite(state.states[f]).all(axis=-1)
        state.log_weights[f] = np.where(ok, 0.0, -np.inf) if ok.any() else 0.0
        if state.widths is not None:
            state.log_weights[f, int(state.widths[f]):] = -np.inf
        state.heal_counters["rejuvenated"] += 1
        sessions[b].heal_counters["rejuvenated"] += 1


def cohort_estimate(ctx: CohortExecutionContext, state: FilterState) -> None:
    """One global estimate *per session block*: ``state.estimate`` is (R, d).

    ``max_weight`` reproduces :func:`repro.core.estimator.max_weight_estimate`
    row-block-wise with the same float64 conversion, the same usability mask
    and the same first-occurrence argmax tie-break, vectorized over blocks.
    ``weighted_mean`` calls the scalar reducer per block: its ``w @ contrib``
    contraction is a BLAS dot whose summation order must be reproduced
    exactly, so the blocks are reduced one at a time just as solo filters
    would.
    """
    X = ctx.cohort_block_rows
    F, m = state.log_weights.shape
    R = F // X
    d = state.states.shape[-1]
    kind = ctx.config.estimator
    flat_states = np.ascontiguousarray(state.states).reshape(R, X * m, d)
    if kind == "max_weight":
        lw = state.log_weights.astype(np.float64).reshape(R, X * m)
        if not healthy_round(lw, flat_states):
            unusable = np.isnan(lw) | ~np.isfinite(flat_states).all(axis=2)
            lw[unusable] = -np.inf
        idx = lw.argmax(axis=1)
        vals = np.take_along_axis(lw, idx[:, None], axis=1)[:, 0]
        est = np.take_along_axis(
            flat_states, idx[:, None, None], axis=1)[:, 0].astype(np.float64)
        for b in np.flatnonzero(~np.isfinite(vals)):
            est[b] = _finite_fallback(flat_states[b])
    elif kind == "weighted_mean":
        lwb = state.log_weights.reshape(R, X * m)
        est = np.empty((R, d), dtype=np.float64)
        for b in range(R):
            est[b] = weighted_mean_estimate(flat_states[b], lwb[b])
    else:
        raise ValueError(f"unknown estimator kind {kind!r}")
    state.estimate = est
    state.last_estimate = est


def _capture_cohort_alloc_metrics(ctx: CohortExecutionContext, state: FilterState,
                                  local_w: np.ndarray, local_peak: np.ndarray) -> None:
    """Per-row ESS plus *per-block* weight-mass share.

    The per-row reductions are identical to the reference capture; the share
    normalization — ``exp(lse - max) / sum`` — runs within each session
    block, because each solo filter normalizes over its own sub-filters
    only.
    """
    X = ctx.cohort_block_rows
    w = np.where(np.isfinite(local_w), local_w, 0.0)
    s1 = w.sum(axis=1)
    s2 = np.einsum("fm,fm->f", w, w)
    with np.errstate(invalid="ignore", divide="ignore"):
        state.round_ess = np.where(s2 > 0.0, (s1 * s1) / np.where(s2 > 0.0, s2, 1.0), 0.0)
        lse = np.where(s1 > 0.0, local_peak[:, 0] + np.log(np.where(s1 > 0.0, s1, 1.0)),
                       -np.inf)
    lseb = lse.reshape(-1, X)
    g = lseb.max(axis=1, keepdims=True)
    share = np.empty_like(lseb)
    finite = np.isfinite(g[:, 0])
    if finite.any():
        e = np.exp(lseb[finite] - g[finite])
        share[finite] = e / e.sum(axis=1, keepdims=True)
    if not finite.all():
        share[~finite] = 1.0 / X
    state.round_mass_share = share.reshape(-1)


def cohort_resample(ctx: CohortExecutionContext, state: FilterState) -> None:
    """Reference resampling with block-scoped metrics and striped draws.

    Operation-for-operation :func:`repro.engine.vector_stages.resample`
    (minus roughening, which the envelope excludes): same scratch keys, same
    float64 shift-exp, same policy query, same all-rows fast path. The only
    differences are the per-block mass-share capture and, on the masked
    path, scoping the striped RNG to the rows that actually resample so each
    session's generator sees exactly its solo draw shapes.
    """
    pooled_states, pooled_logw = state.pooled_states, state.pooled_logw
    row_max = pooled_logw.max(axis=1, keepdims=True)
    w = state.scratch("res.w", pooled_logw.shape, np.float64)
    np.subtract(pooled_logw, row_max, out=w)
    np.exp(w, out=w)
    local_w = state.scratch("res.local_w", state.log_weights.shape, np.float64)
    local_peak = state.log_weights.max(axis=1, keepdims=True)
    np.subtract(state.log_weights, local_peak, out=local_w)
    np.exp(local_w, out=local_w)
    _capture_cohort_alloc_metrics(ctx, state, local_w, local_peak)
    mask = ctx.policy.should_resample(local_w, ctx.rng, widths=state.widths)
    state.resampled_mask = mask
    if not mask.any():
        return
    F, m = state.log_weights.shape
    d = state.states.shape[-1]

    if mask.all():
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
        state.recycle("res.states", state.states)
        state.states = new_states
        state.log_weights.fill(0.0)
        if state.ragged:
            from repro.allocation.migrate import apply_width_mask

            apply_width_mask(state.log_weights, state.widths)
        return

    with ctx.rng.scoped_rows(np.flatnonzero(mask)):
        idx = ctx.resampler.resample_batch(w[mask], m, ctx.rng)  # (F', m)
    new_states = np.take_along_axis(pooled_states[mask], idx[:, :, None], axis=1)
    state.states[mask] = new_states
    state.log_weights[mask] = 0.0
    if state.ragged:
        from repro.allocation.migrate import apply_width_mask

        apply_width_mask(state.log_weights, state.widths)


def cohort_allocate(ctx: CohortExecutionContext, state: FilterState) -> None:
    """Adaptive width re-apportionment, decided and migrated per session.

    Every session owns its (stateful — smoothing, hysteresis) allocation
    policy, so decisions are made block by block on the block's own metrics,
    and the migration kernel's resampler draws are delegated to the owning
    session's generator — the exact call sequence the solo allocation stage
    produces.
    """
    if ctx.config.allocation == "fixed":
        return
    if state.round_ess is None or state.round_mass_share is None:
        return
    X = ctx.cohort_block_rows
    sessions = ctx.cohort_sessions
    widths = state.effective_widths()
    new_all = np.asarray(widths, dtype=np.int64).copy()
    resampled = state.resampled_mask
    if resampled is None:
        resampled = np.zeros(state.n_filters, dtype=bool)
    ess, share = state.round_ess, state.round_mass_share
    for j, sess in enumerate(sessions):
        lo = j * X
        blk_w = widths[lo:lo + X]
        new_w = sess.alloc_policy.decide(blk_w, ess[lo:lo + X], share[lo:lo + X])
        if np.array_equal(new_w, blk_w):
            continue
        with ctx.rng.delegating(j):
            migrated = ctx.invoke_kernel(
                state, "migrate_resize",
                state.states[lo:lo + X], state.log_weights[lo:lo + X],
                blk_w, new_w,
                state.pooled_states[lo:lo + X], state.pooled_logw[lo:lo + X],
                resampled[lo:lo + X], ctx.resampler, ctx.rng,
            )
        new_all[lo:lo + X] = np.asarray(new_w, dtype=np.int64)
        changed = int((np.asarray(new_w) != np.asarray(blk_w)).sum())
        sess.alloc_counters["particles_migrated"] += int(migrated)
        sess.alloc_counters["width_changes"] += changed
        state.alloc_counters["particles_migrated"] += int(migrated)
        state.alloc_counters["width_changes"] += changed
    state.widths = new_all


# ---------------------------------------------------------------------------
# Stage classes
# ---------------------------------------------------------------------------


class CohortHealStage:
    """Block-local self-healing; skipped when ``config.self_heal`` is off."""

    name = "heal"

    def run(self, ctx: CohortExecutionContext, state: FilterState) -> None:
        if ctx.config.self_heal:
            cohort_heal(ctx, state)


class CohortEstimateStage:
    """Per-block estimate reduction: ``state.estimate`` becomes ``(R, d)``."""

    name = "estimate"

    def run(self, ctx: CohortExecutionContext, state: FilterState) -> None:
        cohort_estimate(ctx, state)


class CohortResampleStage:
    """Reference resampling with block-scoped share and striped draws."""

    name = "resample"

    def run(self, ctx: CohortExecutionContext, state: FilterState) -> None:
        cohort_resample(ctx, state)


class CohortAllocationStage:
    """Per-session adaptive allocation; a strict no-op under ``fixed``."""

    name = "allocate"

    def run(self, ctx: CohortExecutionContext, state: FilterState) -> None:
        cohort_allocate(ctx, state)


class CohortFusedStage:
    """The fused compiled round over a cohort slab.

    The fused kernel body already stripes its estimate per block (it reads
    ``ctx.cohort_block_rows``); every other fused operation is row-local and
    its RNG draws go through the striped generator. The post-weighting
    health guard is slab-global: any non-finite value anywhere drops the
    *whole* round to the reference remainder — which is safe precisely
    because the fused and reference paths are bit-identical, and necessary
    because healing needs the per-block donor scan.
    """

    name = "fused"

    def run(self, ctx: CohortExecutionContext, state: FilterState) -> None:
        if not ctx.invoke_kernel(state, "fused_step", ctx, state):
            self._reference_remainder(ctx, state)

    @staticmethod
    def _reference_remainder(ctx: CohortExecutionContext, state: FilterState) -> None:
        if ctx.config.self_heal:
            cohort_heal(ctx, state)
        vector_stages.sort_by_weight(ctx, state)
        cohort_estimate(ctx, state)
        state.pooled_states, state.pooled_logw = vector_stages.exchange_pool(ctx, state)
        cohort_resample(ctx, state)
        # Allocation is "fixed" inside the fused envelope — a strict no-op.


def build_cohort_pipeline(hooks=(), fused: bool = False) -> "StepPipeline":
    """The cohort round: the reference stage list with the block-local
    replacements, or the single fused stage when the fused envelope holds."""
    from repro.engine.pipeline import StepPipeline

    if fused:
        return StepPipeline([CohortFusedStage()], hooks=hooks)
    return StepPipeline(
        [vector_stages.SampleWeightStage(), CohortHealStage(),
         vector_stages.SortStage(), CohortEstimateStage(),
         vector_stages.ExchangeStage(), CohortResampleStage(),
         CohortAllocationStage()],
        hooks=hooks,
    )
