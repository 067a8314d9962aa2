"""Per-stage observer hooks.

A :class:`StageHook` watches a :class:`~repro.engine.pipeline.StepPipeline`
run without being part of the computation: timing, device cost accounting
and resilience monitoring all attach here instead of living inline in the
backends. Hooks receive the stage name, the live :class:`FilterState` (use
its snapshot accessors; do not mutate) and the measured elapsed seconds.

Since the telemetry refactor, the built-in hooks are thin adapters onto the
:mod:`repro.telemetry` spine: each one keeps its legacy accumulator — the
:class:`PhaseTimer`, the ``kernel_seconds``/``kernel_calls`` dicts — exactly
as before (those accessors are part of the golden-trace contract), and
*additionally* emits spans and counters into an attached
:class:`~repro.telemetry.Tracer`. With no tracer (or a disabled one) the
emission short-circuits to a single attribute check, so the hook path costs
what it did before the spine existed.
"""

from __future__ import annotations

from repro.engine.state import FilterState
from repro.metrics.timing import PhaseTimer


class StageHook:
    """Base observer; all callbacks are optional no-ops.

    A raising hook never aborts or corrupts the filter step: the pipeline
    isolates every callback, counts failures in its ``telemetry_errors``
    counter and warns once per site (see :meth:`StepPipeline.fire`).
    """

    def on_step_start(self, state: FilterState) -> None:
        pass

    def on_stage_start(self, name: str, state: FilterState) -> None:
        pass

    def on_stage_end(self, name: str, state: FilterState, elapsed: float) -> None:
        pass

    def on_step_end(self, state: FilterState) -> None:
        pass


class TimerHook(StageHook):
    """Feeds stage durations into a :class:`PhaseTimer`, and spans into a tracer.

    The phase is opened on stage start and closed on stage end through the
    timer's own stack so that nested phases — ``rand`` opened by
    :class:`~repro.metrics.timing.TimingRNG` inside model code — are still
    subtracted from the enclosing stage, exactly as the paper's separate
    PRNG kernel demands. When a :class:`~repro.telemetry.Tracer` is attached
    and enabled, the same start/stop pair also opens/closes a ``stage`` span
    (and the full step gets a ``step`` span), making this hook the timeline
    adapter for every pipeline-driven backend. The :class:`PhaseTimer`
    remains the legacy accessor: its ``seconds``/``fractions()`` values are
    byte-for-byte what they were before the telemetry spine existed.
    """

    def __init__(self, timer: PhaseTimer | None = None, tracer=None,
                 span_attrs: dict | None = None):
        self.timer = timer if timer is not None else PhaseTimer()
        self.tracer = tracer
        #: extra attributes stamped on every ``step`` span (e.g. the active
        #: execution form / dtype policy). ``None`` keeps step spans
        #: byte-identical to builds that predate execution-form dispatch.
        self.span_attrs = span_attrs or {}

    def on_step_start(self, state: FilterState) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.begin(f"step {state.k}", "step", k=state.k, **self.span_attrs)

    def on_stage_start(self, name: str, state: FilterState) -> None:
        self.timer.start(name)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.begin(name, "stage")

    def on_stage_end(self, name: str, state: FilterState, elapsed: float) -> None:
        self.timer.stop()
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.end()

    def on_step_end(self, state: FilterState) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.end()


class KernelTimingHook(StageHook):
    """Aggregates per-kernel wall time across backends.

    :meth:`~repro.engine.stage.ExecutionContext.invoke_kernel` appends
    ``(kernel_name, elapsed, start, rows)`` events to ``state.kernel_events``; this
    hook drains them at every stage end, so ``kernel_seconds``/
    ``kernel_calls`` accumulate uniformly whether the pipeline is vectorized,
    loop-based or a multiprocess worker's. With a tracer attached and
    enabled, every drained event additionally becomes a ``kernel`` span with
    its real timestamps — annotated with the registered cost signature's
    flops/bytes when ``cost_params`` (a callable mapping the drained
    :class:`FilterState` and the call's row count, ``None`` for all rows,
    to a :class:`~repro.kernels.registry.CostParams`) is provided.
    """

    def __init__(self, tracer=None, cost_params=None):
        self.kernel_seconds: dict[str, float] = {}
        self.kernel_calls: dict[str, int] = {}
        self.tracer = tracer
        self.cost_params = cost_params
        self._attr_cache: dict[tuple, dict | None] = {}

    def _cost_attrs(self, name: str, state: FilterState, rows) -> dict | None:
        if self.cost_params is None:
            return None
        params = self.cost_params(state, rows)
        # Keyed by (name, m, n_groups): the live width moves between rounds
        # under adaptive allocation, and a cohort's row count between ticks;
        # each kernel is charged at the shape it actually ran at.
        key = (name, params.m, params.n_groups)
        if key not in self._attr_cache:
            from repro.kernels.registry import kernel_cost_attrs

            self._attr_cache[key] = kernel_cost_attrs(name, params)
        return self._attr_cache[key]

    def _drain(self, state: FilterState) -> None:
        events = getattr(state, "kernel_events", None)
        if not events:
            return
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        for event in events:
            name, elapsed = event[0], event[1]
            self.kernel_seconds[name] = self.kernel_seconds.get(name, 0.0) + elapsed
            self.kernel_calls[name] = self.kernel_calls.get(name, 0) + 1
            if tracing:
                start = event[2]
                tracer.add(name, "kernel", start, start + elapsed,
                           attrs=self._cost_attrs(name, state, event[3]))
        events.clear()

    def on_stage_end(self, name: str, state: FilterState, elapsed: float) -> None:
        self._drain(state)

    def on_step_end(self, state: FilterState) -> None:
        self._drain(state)


class AllocationTelemetryHook(StageHook):
    """Publishes per-sub-filter population health into the tracer.

    At every step end it reads the metrics the resample stage captured on
    the :class:`FilterState` — pre-resample per-sub-filter ESS and weight-
    mass share — and the cumulative allocation counters, and emits:

    - ``alloc.particles_migrated`` / ``alloc.width_changes`` — cumulative
      counters (the hook tracks deltas, so re-entrant steps never
      double-count);
    - ``alloc.ess.f<i>`` — gauge: each sub-filter's latest pre-resample ESS;
    - ``alloc.width.f<i>`` — gauge: each sub-filter's live width (only when
      the population is ragged);
    - ``alloc.mass_hhi`` — gauge: the Herfindahl concentration of the
      weight-mass shares (1/F = balanced, 1.0 = one sub-filter holds all
      the mass).

    Unlike spans, counters are always live, but the whole emission is
    skipped when no tracer is attached or the state never captured metrics
    (loop backends without a resample stage run).
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self._seen: dict[str, int] = {}

    def on_step_end(self, state: FilterState) -> None:
        tracer = self.tracer
        if tracer is None:
            return
        for key, total in state.alloc_counters.items():
            delta = int(total) - self._seen.get(key, 0)
            if delta:
                tracer.count(f"alloc.{key}", delta)
                self._seen[key] = int(total)
        ess = state.round_ess
        if ess is not None:
            tracer.gauges("alloc.ess.f", ess.tolist())
        share = state.round_mass_share
        if share is not None:
            from repro.allocation.metrics import mass_concentration

            tracer.gauge("alloc.mass_hhi", mass_concentration(share))
        if state.widths is not None and state.ragged:
            for i, w in enumerate(state.widths):
                tracer.gauge(f"alloc.width.f{i}", int(w))


class RecordingHook(StageHook):
    """Records the observed event sequence; used by tests and debugging."""

    def __init__(self):
        self.events: list[tuple] = []

    def on_step_start(self, state: FilterState) -> None:
        self.events.append(("step_start", state.k))

    def on_stage_start(self, name: str, state: FilterState) -> None:
        self.events.append(("start", name))

    def on_stage_end(self, name: str, state: FilterState, elapsed: float) -> None:
        self.events.append(("end", name, elapsed))

    def on_step_end(self, state: FilterState) -> None:
        self.events.append(("step_end", state.k))
