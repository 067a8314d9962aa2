"""Roulette Wheel Selection: prefix sum + per-sample binary search.

This is the algorithm the paper uses on sub-filters: initialization is a
parallel prefix sum over the local weights (Theta(n)); generation draws one
uniform per output sample, scales it by the total weight, and binary-searches
the cumulative array (Theta(log n) per sample). The batched form resamples
every sub-filter's row in one fused set of array operations, which is exactly
the shape of the GPU kernel (one work group per row): every draw searches
only its own row, in ceil(log2 n) + 1 lock-step gather-compare steps
(:func:`search_shifted_cdf`, the algorithm of
:func:`repro.kernels.resample_kernels.rws_workgroup`).
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


#: Below this many draws one flat ``searchsorted`` over all rows is cheaper
#: than the lock-step row search (2-vCPU Xeon, NumPy 2.4.6: 16x16 draws over
#: 16-wide rows take 9 us flat against 22 us per row, 32x32 23 against 37 us;
#: 48x32 63 against 42 us, 256x64 over 66-wide rows 1.2 ms against 0.4 ms).
ROW_SEARCH_MIN_DRAWS = 1536


def search_shifted_cdf(cdf: np.ndarray, keys: np.ndarray,
                       min_draws: int = ROW_SEARCH_MIN_DRAWS) -> np.ndarray:
    """``side="right"`` positions of row-shifted keys in a row-shifted CDF.

    ``cdf`` is a C-contiguous ``(F, n)`` array whose row ``r`` holds a CDF
    shifted into ``[r, r + 1]`` (last column ``r + 1``); ``keys`` is
    ``(F, k)`` with row ``r``'s keys shifted by the same ``r`` (never NaN).
    Returns ``(F, k)`` flat positions. Clipped into each key's own row
    ``[r * n, r * n + n - 1]``, they are exactly what one ``searchsorted``
    of the flattened keys in the flattened CDF gives after the same clip.

    From *min_draws* keys up, each key runs the branchless binary search of
    its own row, all keys in lock-step: ceil(log2 n) gather-compare steps
    plus a last compare, with no data-dependent branch. That equals the flat
    search wherever the flat CDF is non-decreasing. Where it drops (a row
    whose prefix sum rounds above its last column, 1.0, does), a key in the
    gap has two answers and the flat search picks one by its probe history,
    so such calls take the flat search.
    """
    flat = cdf.reshape(-1)
    if keys.size < min_draws or (flat[1:] < flat[:-1]).any():
        return flat.searchsorted(keys.reshape(-1), side="right").reshape(keys.shape)
    F, n = cdf.shape
    pos = np.empty(keys.shape, dtype=np.intp)
    pos[...] = np.arange(0, F * n, n, dtype=np.intp).reshape(F, 1)
    vals = np.empty(keys.shape, dtype=np.float64)
    right = np.empty(keys.shape, dtype=bool)
    step = np.empty(keys.shape, dtype=np.intp)
    width = n  # each key's answer lies in [pos, pos + width]
    while width > 1:
        half = width // 2
        flat[half:].take(pos, out=vals, mode="clip")  # cdf at pos + half
        np.less_equal(vals, keys, out=right)
        np.multiply(right, half, out=step)
        pos += step
        width -= half
    flat.take(pos, out=vals, mode="clip")
    np.less_equal(vals, keys, out=right)
    pos += right
    return pos


def rws_indices_batch(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise RWS: ``weights`` is (F, m), ``u`` is (F, k) -> (F, k) indices.

    Row r's normalized CDF (which lives in [0, 1]) and its uniforms are
    shifted into [r, r+1], so the rows concatenate into one ascending array
    and :func:`search_shifted_cdf` can search them in one call.
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
    idx = search_shifted_cdf(c, u + offsets)
    idx -= np.arange(0, F * m, m, dtype=np.intp).reshape(F, 1)
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
        w = self._batch_weights(weights)
        u = rng.uniform((w.shape[0], n_out))
        return rws_indices_batch(w, u)
