"""Roulette Wheel Selection: prefix sum + per-sample binary search.

This is the algorithm the paper uses on sub-filters: initialization is a
parallel prefix sum over the local weights (Theta(n)); generation draws one
uniform per output sample, scales it by the total weight, and binary-searches
the cumulative array (Theta(log n) per sample). The batched form resamples
every sub-filter's row in one fused set of array operations, which is exactly
the shape of the GPU kernel (one work group per row).
"""

from __future__ import annotations

import numpy as np

from repro.prng.streams import FilterRNG
from repro.resampling.base import Resampler
from repro.utils.arrays import normalize_weights


def rws_indices(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms ``u`` in [0,1) to ancestor indices for 1-D *weights*."""
    c = np.cumsum(normalize_weights(np.asarray(weights, dtype=np.float64)))
    c[-1] = 1.0
    return np.searchsorted(c, u, side="right").astype(np.int64)


def rws_indices_batch(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise RWS: ``weights`` is (F, m), ``u`` is (F, k) -> (F, k) indices.

    All rows are searched with a single flattened ``searchsorted`` by shifting
    row r's normalized CDF (which lives in (0, 1]) into the interval
    (r, r+1]; the flattened array is then globally ascending.
    """
    w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    if w.shape[0] != u.shape[0]:
        raise ValueError(f"row mismatch: weights {w.shape} vs uniforms {u.shape}")
    F, m = w.shape
    c = normalize_weights(w, axis=1)  # the one (F, m) buffer; the CDF is built in place
    np.cumsum(c, axis=1, out=c)
    c[:, -1] = 1.0
    offsets = np.arange(F, dtype=np.float64)[:, None]
    c += offsets
    pos = np.searchsorted(c.reshape(-1), (u + offsets).reshape(-1), side="right")
    idx = pos.reshape(F, -1) - np.arange(0, F * m, m).reshape(F, 1)
    # A uniform numerically equal to the row total can land one past the end.
    np.clip(idx, 0, m - 1, out=idx)
    return idx.astype(np.int64, copy=False)


class RouletteWheelResampler(Resampler):
    """RWS resampler; i.i.d. ancestors, batched rows fully vectorized."""

    name = "rws"

    def resample(self, weights: np.ndarray, n_out: int, rng: FilterRNG) -> np.ndarray:
        w = self._validate(weights, n_out)
        return rws_indices(w, rng.uniform((n_out,)))

    def resample_batch(self, weights: np.ndarray, n_out: int, rng: FilterRNG) -> np.ndarray:
        w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        u = rng.uniform((w.shape[0], n_out))
        return rws_indices_batch(w, u)
