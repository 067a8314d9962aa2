"""Systematic and stratified resampling (low-variance alternatives).

Not part of the paper's two-algorithm comparison, but standard in the
particle-filtering literature and cheap to vectorize; included so the
framework can ablate resampler choice against RWS/Vose.
"""

from __future__ import annotations

import numpy as np

from repro.prng.streams import FilterRNG
from repro.resampling.base import Resampler
from repro.utils.arrays import normalize_weights


def _inverse_cdf(weights: np.ndarray, positions: np.ndarray) -> np.ndarray:
    c = np.cumsum(normalize_weights(np.asarray(weights, dtype=np.float64)))
    c[-1] = 1.0
    return np.searchsorted(c, positions, side="right").astype(np.int64)


class SystematicResampler(Resampler):
    """One uniform offset, n_out evenly spaced CDF probes.

    Minimum-variance ancestor counts: every index i appears either
    ``floor(n w_i)`` or ``ceil(n w_i)`` times.
    """

    name = "systematic"

    def resample(self, weights: np.ndarray, n_out: int, rng: FilterRNG) -> np.ndarray:
        w = self._validate(weights, n_out)
        u0 = rng.uniform((1,))[0]
        positions = (np.arange(n_out) + u0) / n_out
        return _inverse_cdf(w, positions)

    def resample_batch(self, weights: np.ndarray, n_out: int, rng: FilterRNG) -> np.ndarray:
        from repro.resampling.rws import rws_indices_batch

        w = self._batch_weights(weights)
        u0 = rng.uniform((w.shape[0], 1))
        positions = (np.arange(n_out)[None, :] + u0) / n_out
        return rws_indices_batch(w, positions)


class StratifiedResampler(Resampler):
    """One independent uniform per stratum ``[k/n, (k+1)/n)``."""

    name = "stratified"

    def resample(self, weights: np.ndarray, n_out: int, rng: FilterRNG) -> np.ndarray:
        w = self._validate(weights, n_out)
        positions = (np.arange(n_out) + rng.uniform((n_out,))) / n_out
        return _inverse_cdf(w, positions)

    def resample_batch(self, weights: np.ndarray, n_out: int, rng: FilterRNG) -> np.ndarray:
        from repro.resampling.rws import rws_indices_batch

        w = self._batch_weights(weights)
        positions = (np.arange(n_out)[None, :] + rng.uniform((w.shape[0], n_out))) / n_out
        return rws_indices_batch(w, positions)
