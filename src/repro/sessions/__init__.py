"""Multi-session cohort batching: many small filters stepped as one slab.

Production traffic is many small concurrent filters, not one big one. This
package packs live :class:`FilterSession`s into shared ``(S·X, m, d)`` cohort
slabs so whole cohorts advance through the solo filter's own
:class:`~repro.engine.pipeline.StepPipeline` (and the fused compiled stage,
when in-envelope) as **one** vectorized call, amortizing per-filter stage
dispatch, kernel launch and telemetry overhead across the cohort. The stage
bodies are the engine's: a context with ``block_rows`` set keeps healing,
the estimate, the mass share and allocation inside each session's block,
and a solo filter is the one-block case.

Parity contract: a cohort-stepped session is **bit-identical** to the same
session stepped alone through :class:`~repro.core.DistributedParticleFilter`
— same model, config, seed, same RNG draw sequence (see
:class:`~repro.sessions.rng.CohortRNG`), same floating-point operations.
Sessions outside the cohort envelope (:func:`cohort_envelope`) transparently
fall back to a private per-session filter under the same scheduler.
"""

from repro.sessions.envelope import (
    COHORT_SAFE_RESAMPLERS,
    cohort_envelope,
    cohort_key,
)
from repro.sessions.rng import CohortRNG, CohortStripeError
from repro.sessions.session import FilterSession, QueueFullError, StepResult
from repro.sessions.cohort import Cohort
from repro.sessions.scheduler import SessionManager

__all__ = [
    "COHORT_SAFE_RESAMPLERS",
    "Cohort",
    "CohortRNG",
    "CohortStripeError",
    "FilterSession",
    "QueueFullError",
    "SessionManager",
    "StepResult",
    "cohort_envelope",
    "cohort_key",
]
