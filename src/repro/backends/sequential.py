"""Loop-based reference implementation of the distributed filter.

Every operation is written per sub-filter, per particle, exactly following
Algorithm 2's pseudocode — no batching, no clever indexing. It is orders of
magnitude slower than the vectorized filter and exists purely as the
correctness oracle (the paper similarly validated its CUDA/OpenCL kernels
against sequential reference implementations).

The oracle is the same :class:`~repro.core.distributed.SoloFilter` as the
vectorized filter — one :class:`~repro.engine.round.Round`, with the
loop-based stage implementations from :mod:`repro.engine.loop_stages` — so
it reports the same canonical per-stage timings and costed kernel spans and
honours the full configuration surface (``roughening``, ``frim_redraws``,
``exchange_select="sample"``) instead of silently diverging from the
vectorized filter. It always runs reference execution (it *is* the
reference), but honours the dtype policy so float32 runs can be validated
against it on the same precision.
"""

from __future__ import annotations

from repro.core.distributed import SoloFilter
from repro.core.parameters import DistributedFilterConfig
from repro.models.base import StateSpaceModel


class SequentialDistributedParticleFilter(SoloFilter):
    """Algorithm 2, straight from the pseudocode, one particle at a time."""

    backend = "sequential"
    stages = "loop"
    per_filter_prior = True

    def __init__(self, model: StateSpaceModel, config: DistributedFilterConfig | None = None,
                 tracer=None):
        super().__init__(model, config or DistributedFilterConfig(n_particles=16, n_filters=4),
                         tracer)
