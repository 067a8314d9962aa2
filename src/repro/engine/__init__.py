"""The stage-pipeline engine: Algorithm 2 expressed once, executed everywhere.

The paper maps the same kernel sequence (sample -> weight -> heal -> sort ->
estimate -> exchange -> resample) onto GPGPU work-groups and CPU cores;
this package is that idea as a library layer:

- :class:`FilterState` — the mutable population + per-round scratch,
- :class:`Stage` / :data:`STAGE_NAMES` — the protocol and canonical names,
- :class:`StepPipeline` — the ordered stage list with observer hooks,
- :class:`StageHook` / :class:`TimerHook` — timing, device cost accounting
  and resilience monitoring attach here instead of living inline,
- :mod:`~repro.engine.vector_stages` — the batched-NumPy kernel bodies,
- :mod:`~repro.engine.loop_stages` — the per-particle oracle bodies,
- :class:`Round` — one owner's round machinery (timer, timed RNG,
  policies, state, context, tracer, hooks, pipeline choice, kernel cost
  parameters) and :func:`prior_population`, built in one place.

Every owner of a round builds a :class:`Round` and adds only what differs:
the vectorized filter and the loop oracle pick vector or loop stages; a
session cohort sets its blocks and derives a per-size context; a
multiprocess worker splits the round at the exchange, which the master
routes, and leads its hooks with heartbeat, fault and heal monitoring. The
device-simulated filter attaches a cost hook to the pipeline it wraps.
"""

from repro.engine.hooks import (
    AllocationTelemetryHook,
    KernelTimingHook,
    RecordingHook,
    StageHook,
    TimerHook,
)
from repro.engine.pipeline import StepPipeline
from repro.engine.stage import STAGE_NAMES, ExecutionContext, Stage
from repro.engine.state import FilterState
from repro.engine.fused import FusedStepStage, build_fused_pipeline
from repro.engine.loop_stages import build_loop_pipeline
from repro.engine.vector_stages import build_vector_pipeline
from repro.engine.round import Round, prior_population

__all__ = [
    "FusedStepStage",
    "build_fused_pipeline",
    "ExecutionContext",
    "FilterState",
    "AllocationTelemetryHook",
    "KernelTimingHook",
    "RecordingHook",
    "Round",
    "STAGE_NAMES",
    "Stage",
    "StageHook",
    "StepPipeline",
    "TimerHook",
    "build_loop_pipeline",
    "build_vector_pipeline",
    "prior_population",
]
