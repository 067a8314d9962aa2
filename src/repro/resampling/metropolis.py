"""Metropolis resampler (Murray, 2012) as a pluggable ``Resampler``.

Unlike RWS and the alias method, Metropolis resampling never computes the
weight sum: each output sample runs a short independent Markov chain over
the ancestor indices, accepting a proposed ancestor ``j`` over the current
``i`` with probability ``min(1, w_j / w_i)``. That makes it collective-free
(no prefix sum, no normalization — only ratios), which is exactly the
property that matters on wide SIMT hardware where the scan is the only
cross-lane dependency in the resampling stage.

The ancestor distribution is *approximate*: bias decays geometrically with
the chain length ``B``, so ``B = O(log n)`` steps suffice in practice
(:func:`repro.kernels.metropolis.default_metropolis_steps`). The kernel
bodies live in :mod:`repro.kernels.metropolis`; this module only adapts
them to the :class:`~repro.resampling.base.Resampler` interface.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.metropolis import default_metropolis_steps, metropolis_resample_batch
from repro.prng.streams import FilterRNG
from repro.resampling.base import Resampler


class MetropolisResampler(Resampler):
    """Scan-free approximate resampling via per-sample Metropolis chains.

    Parameters
    ----------
    steps:
        chain length ``B``; ``None`` selects
        :func:`~repro.kernels.metropolis.default_metropolis_steps` per call.
    """

    name = "metropolis"

    def __init__(self, steps: int | None = None):
        if steps is not None and steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.steps = steps

    def _steps(self, n: int) -> int:
        return self.steps if self.steps is not None else default_metropolis_steps(n)

    def resample(self, weights: np.ndarray, n_out: int, rng: FilterRNG) -> np.ndarray:
        w = self._validate(weights, n_out)
        B = self._steps(w.shape[0])
        u = rng.uniform((2, B, n_out))
        return metropolis_resample_batch(w[None, :], u[0][None], u[1][None])[0]

    def resample_batch(self, weights: np.ndarray, n_out: int, rng: FilterRNG) -> np.ndarray:
        w = self._batch_weights(weights)
        B = self._steps(w.shape[1])
        u = rng.uniform((2, w.shape[0], B, n_out))
        return metropolis_resample_batch(w, u[0], u[1])
