"""One owner's filtering round: the machinery every owner shares, built once.

In the paper every sub-filter runs the same local round; only the neighbour
exchange and the estimate reduction leave it (Algorithm 2, Section V). A
:class:`Round` builds that round's machinery in one place — timer, timed
RNG, policies, state, context, tracer, hooks, kernel cost parameters, the
fused-or-reference choice and the compiled warm-up — and
:func:`prior_population` draws its prior. Owners add only what differs: the
solo filters pick vector or loop stages, a session cohort derives a per-size
context with :meth:`Round.context`, and a multiprocess worker splits the
round at the exchange into two pipelines over :attr:`Round.hooks`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.allocation import allocation_capacity, pad_population
from repro.core.dtypes import resolve_dtype_policy
from repro.core.registry import make_policy, make_resampler
from repro.engine.fused import build_fused_pipeline, fused_pipeline_applicable
from repro.engine.hooks import AllocationTelemetryHook, KernelTimingHook, TimerHook
from repro.engine.loop_stages import build_loop_pipeline
from repro.engine.stage import ExecutionContext
from repro.engine.state import FilterState
from repro.engine.vector_stages import build_vector_pipeline
from repro.kernels.forms import ExecutionPolicy
from repro.kernels.registry import CostParams, default_registry
from repro.metrics.timing import PhaseTimer, TimingRNG
from repro.telemetry import Tracer


def _prior_rows(model, rng, i, m, dtype):
    with rng.delegating(i):
        return model.initial_particles(m, rng, dtype=dtype)


def prior_population(model, config, rng, dtype_policy, rows=None, per_filter=False):
    """Draw the prior of *rows* sub-filters (default ``n_filters``), padded.

    One flat ``(rows * m, d)`` draw, or with *per_filter* one ``(m, d)``
    draw per sub-filter inside ``rng.delegating(i)`` (a striped stream serves
    each from its own stream). Adaptive allocation pads the equal split to
    the policy's capacity; returns ``(states, log_weights, widths)`` with
    ``widths`` ``None`` under the fixed dense layout.
    """
    F = config.n_filters if rows is None else rows
    m, dtype = config.n_particles, dtype_policy.state
    if per_filter:
        states = np.stack([_prior_rows(model, rng, i, m, dtype) for i in range(F)])
    else:
        flat = model.initial_particles(F * m, rng, dtype=dtype)
        states = np.ascontiguousarray(flat.reshape(F, m, model.state_dim))
    log_weights = np.zeros((F, m), dtype=dtype_policy.weight)
    capacity = allocation_capacity(config)
    if capacity == m:
        return states, log_weights, None
    states, log_weights = pad_population(states, log_weights, capacity)
    return states, log_weights, np.full(F, m, dtype=np.int64)


class Round:
    """The shared machinery of one owner's Algorithm-2 round.

    Parameters
    ----------
    rng:
        the owner's stream; the round wraps it in a :class:`TimingRNG`.
    stages:
        ``"vector"`` (the fused round when :attr:`fused`), ``"loop"`` (the
        per-particle oracle, always reference execution), or ``None`` when
        the owner assembles its own pipelines from :attr:`hooks`.
    owner:
        the filter whose kernel methods the vector stages dispatch through;
        overriding any of them keeps the round off the fused path.
    hooks:
        owner hooks that lead the round's own timer and kernel hooks.
    alloc_policy:
        the owner's allocation policy; with one, a non-fused round also
        publishes allocation telemetry.
    alloc_metrics:
        ``False`` keeps the resample stage from capturing the allocation
        metrics; with ``True`` it captures them only when a reader exists
        (an adaptive allocation or the telemetry hook).
    """

    def __init__(self, model, config, rng, *, stages="vector", owner=None,
                 tracer=None, hooks=(), state=None, topology=None, table=None,
                 mask=None, alloc_policy=None, alloc_metrics=True):
        self.model = model
        self.config = config
        self.timer = PhaseTimer()
        self.rng = TimingRNG(rng, self.timer)
        self.resampler = make_resampler(config.resampler)
        self.policy = make_policy(config.resample_policy, config.resample_arg)
        self.dtype_policy = resolve_dtype_policy(config.dtype_policy, config.dtype)
        self.dtype = self.dtype_policy.state
        # The oracle *is* the reference: it never takes a compiled form.
        self.execution = "reference" if stages == "loop" else config.execution
        self.exec_policy = ExecutionPolicy.from_config(self.execution)
        self.state = FilterState() if state is None else state
        self.ctx = ExecutionContext(
            model=model, config=config, rng=self.rng, resampler=self.resampler,
            policy=self.policy, dtype=self.dtype, topology=topology, table=table,
            mask=mask, owner=owner, alloc_policy=alloc_policy,
            exec_policy=self.exec_policy, dtype_policy=self.dtype_policy,
            alloc_metrics=alloc_metrics,
        )
        # Span recording is off until an exporter is attached (or
        # ``tracer.enabled`` is set); the timer/kernel_seconds path is not.
        self.tracer = Tracer() if tracer is None else tracer
        self.kernel_hook = KernelTimingHook(tracer=self.tracer,
                                            cost_params=self.cost_params)
        # Non-default execution/dtype policies are stamped onto every step
        # span; default runs emit byte-identical telemetry to older builds.
        span_attrs = None
        if self.execution != "reference" or config.dtype_policy != "mixed":
            span_attrs = {"execution": self.execution,
                          "dtype_policy": config.dtype_policy}
        self.hooks = [*hooks, TimerHook(self.timer, tracer=self.tracer,
                                        span_attrs=span_attrs), self.kernel_hook]
        self.fused = (stages == "vector"
                      and fused_pipeline_applicable(self if owner is None else owner))
        telemetry = alloc_policy is not None and not self.fused
        if telemetry:
            # The fused envelope fixes the allocation: nothing to report.
            self.hooks.append(AllocationTelemetryHook(tracer=self.tracer))
        # The resample stage captures the allocation metrics only for a
        # reader: an adaptive policy's allocate stage or the telemetry hook.
        self.ctx.alloc_metrics = alloc_metrics and (telemetry or config.allocation != "fixed")
        self.pipeline = None
        if stages == "loop":
            self.pipeline = build_loop_pipeline(hooks=self.hooks)
        elif stages == "vector":
            build = build_fused_pipeline if self.fused else build_vector_pipeline
            self.pipeline = build(hooks=self.hooks)
        if self.execution != "reference":
            # Compile (numba, when present) now, so no timed step pays it.
            self.exec_policy.warm_up(default_registry())

    def cost_params(self, state: FilterState, rows=None) -> CostParams:
        """The shape a kernel drained from *state* is charged at: one group
        per row it ran on (*rows*, or all of the state's), at the mean live
        width under adaptive allocation."""
        n_rows = state.log_weights.shape[0]
        m = self.config.n_particles
        if state.widths is not None:
            m = max(1, round(state.live_particles / n_rows))
        return CostParams(m=m, state_dim=self.model.state_dim, n_groups=rows or n_rows,
                          dtype_bytes=self.dtype.itemsize,
                          n_exchange=self.config.n_exchange)

    def context(self, **changes) -> ExecutionContext:
        """A copy of the round's context with *changes* (a cohort's per-size
        config, tables and block rows)."""
        return dataclasses.replace(self.ctx, **changes)

    def initialize(self, rows=None, per_filter=False) -> None:
        """Reset the state to the prior drawn from the round's stream."""
        self.state.reset(*prior_population(self.model, self.config, self.rng,
                                           self.dtype_policy, rows, per_filter))
