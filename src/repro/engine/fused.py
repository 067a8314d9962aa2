"""The fused execution form: one filtering round as a single compiled pass.

The reference pipeline runs Algorithm 2 as seven hooked stages, each a
handful of batched-NumPy calls over the ``(F, m, d)`` population. At the
paper's CPU-class shapes (tens of sub-filters holding tens of particles) a
round is interpreter-bound: stage/hook bookkeeping and per-call NumPy
dispatch dominate the arithmetic. This module is the ``compiled`` form of
that round — the whole sampling → weight → sort → estimate → exchange →
resample sequence fused into one kernel body that

- composes the sort permutation into the final resample gather instead of
  materializing the sorted ``(F, m, d)`` state array;
- reads the global max-weight estimate off the sorted rows' leading column
  instead of re-scanning the full population;
- inlines the roulette-wheel resampler's prefix sum → normalize into the
  pool buffers and searches the row-shifted CDF with the same
  :func:`~repro.resampling.rws.search_shifted_cdf` the reference resampler
  uses;
- preallocates every buffer, index table and array view in a per-shape
  :class:`_FusedPlan`, so the steady-state round is a straight line of
  ``out=``-form ufunc and ``.take`` calls with no wrappers, no allocation
  and no scratch-pool lookups;
- draws from the underlying generator directly, skipping the per-call
  ``rand``-phase accounting wrapper (the compiled form reports kernel time
  as one ``fused_step`` event instead of the per-phase breakdown);
- skips the per-round allocation metrics and resampling-policy machinery
  that the gated envelope (fixed allocation, ``always`` policy) makes
  statically decidable;
- runs as one pipeline stage, so per-step hook traffic collapses from
  seven stages' worth to one.

**Bit-parity contract.** On a healthy round the fused body performs the
same floating-point operations in the same order and draws the RNG in the
same sequence as the reference stages (``model.transition`` then the
resampler's row uniforms), so estimates and populations are bit-identical
to the reference pipeline at equal dtype policy. The fused fast path only
runs inside the envelope checked by :func:`fused_pipeline_applicable`; when
a round turns unhealthy (any non-finite weight or state after weighting)
the stage falls back to the reference kernel bodies *for that round*,
preserving parity on degenerate traces too.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.stage import ExecutionContext
from repro.engine.state import FilterState
from repro.engine import vector_stages
from repro.kernels.exchange import route_pooled
from repro.kernels.registry import stable_row_argsort
from repro.metrics.timing import TimingRNG
from repro.resampling.rws import search_shifted_cdf, shifted_key_bounds

__all__ = [
    "FusedStepStage",
    "build_fused_pipeline",
    "fused_envelope_ok",
    "fused_pipeline_applicable",
    "fused_step_batch",
]


def fused_envelope_ok(cfg) -> bool:
    """True when *cfg* is inside the fused form's statically-safe envelope.

    The fused body hard-codes the paper-default round: fixed allocation,
    top-``t``-after-sort exchange, resample-every-round with the RWS
    resampler, max-weight estimate, no FRIM redraws, no roughening.
    Anything else runs the reference stages (same results, just not fused).
    """
    return (
        cfg.allocation == "fixed"
        and cfg.frim_redraws == 0
        and cfg.roughening == 0.0
        and cfg.exchange_select == "best"
        and cfg.selection == "sort"
        and cfg.resample_policy == "always"
        and cfg.estimator == "max_weight"
        and cfg.resampler == "rws"
    )


def fused_pipeline_applicable(filt) -> bool:
    """Whether *filt* may run the fused pipeline instead of the reference one.

    Requires the compiled execution policy, a config inside
    :func:`fused_envelope_ok`, and that *filt* did not subclass any of the
    kernel override points (``_heal_population``/``_top_t``/``_exchange``/
    ``_resample``) — the related-work variants must keep their overrides on
    the hot path, so they always get the reference stage sequence.
    """
    cfg = filt.config
    if getattr(cfg, "execution", "reference") != "compiled":
        return False
    if not fused_envelope_ok(cfg):
        return False
    from repro.core.distributed import DistributedParticleFilter

    for method in ("_heal_population", "_top_t", "_exchange", "_resample"):
        base = getattr(DistributedParticleFilter, method)
        if getattr(type(filt), method, base) is not base:
            return False
    return True


class _FusedPlan:
    """Preallocated buffers, index tables and views for one problem shape.

    Built on the first fused round (and whenever the shape, dtypes,
    exchange width or routing table change — the ``key`` comparison), then
    reused every round: the steady-state fused body touches no allocator
    and no scratch-pool dictionary. Its ``.take`` gathers run unbuffered
    (``mode="clip"``): every index is in range by construction, except the
    neighbour table's, which is range-checked here once.
    """

    __slots__ = (
        "key", "neg", "flat", "sorted_logw", "col0", "logw_obj", "logw_flat",
        "sel_flat", "send_states", "send_logw", "recv_states", "recv_logw",
        "recv_states4", "recv_logw3", "pool_states", "pool_own", "pool_recv",
        "pool_logw", "pool_logw_own", "pool_logw_recv", "ext", "ext_own",
        "ext_flat", "w", "w_last", "key_top", "row_max", "total",
        "mapped", "spare",
        "off_m", "off_f", "lo", "src", "all_valid", "pooled",
        "t", "width", "pool_m",
    )

    def __init__(self, key, F, m, d, t, sdt, wdt, table, mask, pooled):
        self.key = key
        self.t = t
        self.pooled = pooled
        self.logw_obj = None
        self.logw_flat = None
        self.neg = np.empty((F, m), dtype=wdt)
        self.flat = np.empty((F, m), dtype=np.intp)
        self.sorted_logw = np.empty((F, m), dtype=wdt)
        self.col0 = self.sorted_logw[:, 0]
        self.mapped = np.empty((F, m), dtype=np.intp)
        self.spare = np.empty((F, m, d), dtype=sdt)
        self.off_m = (np.arange(F, dtype=np.intp) * m).reshape(F, 1)
        self.off_f = np.arange(F, dtype=np.float64).reshape(F, 1)
        # row_max carries the pool's weight dtype: the reference subtraction
        # picks its ufunc loop from the *input* dtypes, so a float64 buffer
        # here would change float32-policy rounding and break bit-parity.
        self.row_max = np.empty((F, 1), dtype=wdt)
        self.total = np.empty((F, 1), dtype=np.float64)
        if t == 0 or table is None or table.shape[1] == 0:
            # No exchange: the pool is the (unsorted) local population and
            # the position→storage map is the sort permutation itself.
            width = 0
            self.src = None
            self.all_valid = True
        elif pooled:
            width = t
            self.src = None
            self.all_valid = True
        else:
            self.src = np.maximum(table, 0)
            if self.src.size and self.src.max() >= F:
                raise IndexError(f"neighbour table entry out of range [0, {F})")
            self.all_valid = bool(mask.all())
            width = table.shape[1] * t
        self.width = width
        pool_m = m + width
        self.pool_m = pool_m
        if width:
            self.sel_flat = self.flat[:, :t]  # flat == order + row*m, so its
            # leading columns are exactly the flat top-t indices
            self.send_states = np.empty((F, t, d), dtype=sdt)
            self.send_logw = self.sorted_logw[:, :t]
            self.recv_states = np.empty((F, width, d), dtype=sdt)
            self.recv_logw = np.empty((F, width), dtype=wdt)
            D = width // t
            self.recv_states4 = self.recv_states.reshape(F, D, t, d)
            self.recv_logw3 = self.recv_logw.reshape(F, D, t)
            self.pool_states = np.empty((F, pool_m, d), dtype=sdt)
            self.pool_own = self.pool_states[:, :m]
            self.pool_recv = self.pool_states[:, m:]
            self.pool_logw = np.empty((F, pool_m), dtype=wdt)
            self.pool_logw_own = self.pool_logw[:, :m]
            self.pool_logw_recv = self.pool_logw[:, m:]
            self.ext = np.empty((F, pool_m), dtype=np.intp)
            self.ext_own = self.ext[:, :m]
            self.ext[:, m:] = np.arange(m, pool_m, dtype=np.intp)
            self.ext_flat = self.ext.reshape(-1)
        self.w = np.empty((F, pool_m), dtype=np.float64)
        self.w_last = self.w[:, -1:]
        self.key_top = shifted_key_bounds(F)
        self.lo = (np.arange(F, dtype=np.intp) * pool_m).reshape(F, 1)


def _get_plan(ctx: ExecutionContext, state: FilterState,
              F: int, m: int, d: int) -> _FusedPlan:
    cfg = ctx.config
    table = ctx.table
    pooled = bool(ctx.topology is not None and ctx.topology.pooled)
    key = (F, m, d, cfg.n_exchange, state.states.dtype, state.log_weights.dtype,
           None if table is None else id(table), pooled)
    plan = getattr(state, "_fused_plan", None)
    if plan is None or plan.key != key:
        plan = _FusedPlan(key, F, m, d, cfg.n_exchange, state.states.dtype,
                          state.log_weights.dtype, table, ctx.mask, pooled)
        state._fused_plan = plan
    return plan


def fused_step_batch(ctx: ExecutionContext, state: FilterState) -> bool:
    """One fused filtering round over the full ``(F, m, d)`` population.

    Returns ``True`` when the fused fast path completed the round, and
    ``False`` when the post-weighting health guard tripped — the caller
    (:class:`FusedStepStage`) then finishes the round through the reference
    stage bodies, so degenerate rounds heal exactly as they always did.
    """
    rng = ctx.rng
    if isinstance(rng, TimingRNG):
        rng = rng.inner  # same stream, no per-call phase accounting
    # -- sampling + weighting (identical draws to the reference stage) -----
    state.healthy = False
    state.states = ctx.model.transition(state.states, state.control, state.k, rng)
    loglik = ctx.model.log_likelihood(state.states, state.measurement, state.k)
    logw = state.log_weights
    np.add(logw, loglik, out=logw)
    states = state.states
    F, m = logw.shape
    d = states.shape[-1]
    plan = _get_plan(ctx, state, F, m, d)

    # -- health guard: the reference heal pass is a bit-exact no-op iff
    #    every weight and every state component is finite. Any non-finite
    #    element makes its array's sum non-finite, so two reductions replace
    #    per-element masks; a finite-but-overflowing sum merely falls back
    #    to the (bit-identical) reference path. ----------------------------
    if not math.isfinite(float(logw.sum()) + float(states.sum())):
        return False

    # -- sort: permutation only. The sorted *weights* are materialized (the
    #    resampler consumes them); the sorted *states* never are — the
    #    permutation is composed into the final resample gather instead. ----
    np.negative(logw, out=plan.neg)
    order = stable_row_argsort(plan.neg)  # stable descending
    np.add(order, plan.off_m, out=plan.flat)
    sorted_logw = plan.sorted_logw
    logw_flat = plan.logw_flat
    if plan.logw_obj is not logw:
        plan.logw_obj = logw
        logw_flat = plan.logw_flat = logw.reshape(-1)
    logw_flat.take(plan.flat, out=sorted_logw, mode="clip")

    # -- estimate: rows are sorted descending, so each row's best particle
    #    sits in column 0 and the global max-weight winner is the argmax of
    #    that column (first occurrence — same tie-break as the reference
    #    flat scan over the sorted population). A cohort context stripes the
    #    reduction per session block: each block of ``ctx.block_rows`` rows
    #    is an independent filter and yields its own estimate row, with the
    #    same first-occurrence tie-break the block would see alone. --------
    block = ctx.block_rows
    if block is None:
        lead = int(plan.col0.argmax())
        est = states[lead, order[lead, 0]].astype(np.float64)
    else:
        n_blocks = F // block
        leads = np.ascontiguousarray(plan.col0).reshape(n_blocks, block).argmax(axis=1)
        rows = leads + np.arange(n_blocks, dtype=np.intp) * block
        est = states[rows, order[rows, 0]].astype(np.float64)

    # -- exchange: send each row's top-t (columns 0..t of the sort), pool
    #    [own | received]. The own block stays in *unsorted* particle order;
    #    only its weights enter the pool sorted, and the ``ext`` map below
    #    translates pooled positions back to unsorted storage. -------------
    if plan.width == 0:
        pool_m = m
        pooled_src = states
        pooled_logw = sorted_logw
        ext_flat = order.reshape(-1)
    else:
        states.reshape(F * m, d).take(plan.sel_flat, axis=0, out=plan.send_states, mode="clip")
        if plan.pooled:
            recv_states, recv_logw = route_pooled(plan.send_states, plan.send_logw,
                                                  plan.t)
            np.copyto(plan.recv_states, recv_states)
            np.copyto(plan.recv_logw, recv_logw)
        else:
            plan.send_states.take(plan.src, axis=0, out=plan.recv_states4, mode="clip")
            plan.send_logw.take(plan.src, axis=0, out=plan.recv_logw3, mode="clip")
            if not plan.all_valid:
                plan.recv_logw3[~ctx.mask] = -np.inf
        pool_m = plan.pool_m
        pooled_src = plan.pool_states
        pooled_logw = plan.pool_logw
        np.copyto(plan.pool_own, states)
        np.copyto(plan.pool_recv, plan.recv_states)
        np.copyto(plan.pool_logw_own, sorted_logw)
        np.copyto(plan.pool_logw_recv, plan.recv_logw)
        np.copyto(plan.ext_own, order)
        ext_flat = plan.ext_flat

    # -- resample ("always" policy): every row draws m ancestors from its
    #    pooled weighted set via the inlined RWS kernel. Operation-for-
    #    operation the reference path (float64 weights regardless of the
    #    carried weight dtype; prefix sum → divide by its last entry →
    #    row-shifted search with keys held inside their rows), so the RNG
    #    consumption and the ancestor indices are bit-identical. ----------
    w = plan.w
    row_max = pooled_logw.max(axis=1, keepdims=True, out=plan.row_max)
    np.subtract(pooled_logw, row_max, out=w)
    np.exp(w, out=w)
    np.add.accumulate(w, axis=1, out=w)
    np.copyto(plan.total, plan.w_last)  # >= 1: exp(0) peak
    np.divide(w, plan.total, out=w)  # the CDF, clamped at 1.0
    np.add(w, plan.off_f, out=w)  # row r's CDF shifted into [r, r+1]
    u = rng.uniform((F, m))
    np.add(u, plan.off_f, out=u)
    np.minimum(u, plan.key_top, out=u)
    pos = search_shifted_cdf(w, u)
    ext_flat.take(pos, out=plan.mapped, mode="clip")
    np.add(plan.mapped, plan.lo, out=plan.mapped)
    new_states = plan.spare
    if new_states is states or new_states.shape != states.shape \
            or new_states.dtype != states.dtype:
        # External code replaced the live population array (checkpoint
        # restore, tests poking at ``.states``); never gather into an alias.
        new_states = np.empty_like(states)
    if not pooled_src.flags.c_contiguous:
        pooled_src = np.ascontiguousarray(pooled_src)
    pooled_src.reshape(F * pool_m, d).take(plan.mapped, axis=0, out=new_states, mode="clip")
    plan.spare = states
    state.states = new_states
    logw.fill(0.0)

    state.estimate = est
    state.last_estimate = est
    state.pooled_states = None
    state.pooled_logw = None
    return True


class FusedStepStage:
    """The whole round as one stage, dispatched through the kernel registry.

    Invokes the ``fused_step`` kernel (whose compiled form is
    :func:`fused_step_batch`); when the health guard declines the fast path,
    the remainder of the round runs through the reference kernel bodies so
    degenerate rounds stay bit-identical to the reference pipeline. Over a
    session cohort the guard is slab-global: one non-finite value sends the
    whole slab down the reference remainder, whose bodies keep healing and
    the estimate inside each session block.
    """

    name = "fused"

    def run(self, ctx: ExecutionContext, state: FilterState) -> None:
        if not ctx.invoke_kernel(state, "fused_step", ctx, state):
            self._reference_remainder(ctx, state)

    @staticmethod
    def _reference_remainder(ctx: ExecutionContext, state: FilterState) -> None:
        """Finish an unhealthy round exactly as the reference stages would.

        Sampling + weighting already ran (the fused body and the reference
        stage perform them identically); everything from healing onward is
        replayed through the reference stage classes, which honour owner
        overrides. Allocation is "fixed" inside the fused envelope — a strict
        no-op — so it is not replayed.
        """
        for stage in _REMAINDER_STAGES:
            stage.run(ctx, state)


_REMAINDER_STAGES = (vector_stages.HealStage(), vector_stages.SortStage(force=True),
                     vector_stages.EstimateStage(), vector_stages.ExchangeStage(),
                     vector_stages.ResampleStage())


def build_fused_pipeline(hooks=()) -> "StepPipeline":
    """The fused round as a single-stage pipeline (hooks still attach)."""
    from repro.engine.pipeline import StepPipeline

    return StepPipeline([FusedStepStage()], hooks=hooks)
