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


def rws_indices(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms ``u`` in [0,1) to ancestor indices for 1-D *weights*."""
    c = rws_cdf(np.reshape(weights, (1, -1)))[0]
    u = np.minimum(np.asarray(u, dtype=np.float64), np.nextafter(1.0, 0.0))
    return np.searchsorted(c, u, side="right").astype(np.int64)


def rws_cdf(weights: np.ndarray) -> np.ndarray:
    """Row-wise normalized CDFs of ``(F, m)`` non-negative *weights*.

    Each row's prefix sum is divided by its own last entry, so the CDF is
    clamped at 1.0 by construction: it never rises above 1.0, ends at
    exactly 1.0, and a zero weight repeats the entry before it (a trailing
    run of zero weights sits at 1.0 with the last positive weight). A row
    with no finite positive total gets the uniform CDF, as
    :func:`~repro.utils.arrays.normalize_weights` gives it uniform weights.
    """
    c = np.cumsum(np.asarray(weights, dtype=np.float64), axis=1)
    total = c[:, -1:].copy()
    bad = ~np.isfinite(total[:, 0]) | (total[:, 0] <= 0)
    if bad.any():
        m = c.shape[1]
        c[bad] = np.arange(1, m + 1, dtype=np.float64)
        total[bad] = m
    np.divide(c, total, out=c)
    return c


#: Below this many draws one flat ``searchsorted`` over all rows is cheaper
#: than the lock-step row search (2-vCPU Xeon, NumPy 2.4.6: 16x16 draws over
#: 16-wide rows take 9 us flat against 22 us per row, 32x32 23 against 37 us;
#: 48x32 63 against 42 us, 256x64 over 66-wide rows 1.2 ms against 0.4 ms).
ROW_SEARCH_MIN_DRAWS = 1536


def shifted_key_bounds(n_rows: int) -> np.ndarray:
    """``(n_rows, 1)`` upper bounds for row-shifted keys: row ``r``'s is the
    largest float64 below ``r + 1``, the top of its shifted CDF."""
    top = np.arange(1, n_rows + 1, dtype=np.float64).reshape(n_rows, 1)
    return np.nextafter(top, 0.0)


def search_shifted_cdf(cdf: np.ndarray, keys: np.ndarray,
                       min_draws: int = ROW_SEARCH_MIN_DRAWS) -> np.ndarray:
    """``side="right"`` positions of row-shifted keys in a row-shifted CDF.

    ``cdf`` is a C-contiguous ``(F, n)`` array whose row ``r`` holds a
    non-decreasing CDF shifted into ``[r, r + 1]`` (last column ``r + 1``,
    as :func:`rws_cdf` plus ``r`` gives); ``keys`` is ``(F, k)`` with row
    ``r``'s keys shifted by the same ``r`` and bounded by
    :func:`shifted_key_bounds` (never NaN). Every key's position then lies
    in its own row, ``[r * n, r * n + n - 1]``, and is the one that a
    single ``searchsorted`` of the flattened keys in the flattened CDF
    gives: the flat CDF is non-decreasing, so each key has one answer.

    From *min_draws* keys up, each key runs the branchless binary search of
    its own row, all keys in lock-step: ceil(log2 n) gather-compare steps
    plus a last compare, with no data-dependent branch.
    """
    flat = cdf.reshape(-1)
    if keys.size < min_draws:
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

    Row r's CDF (:func:`rws_cdf`, in [0, 1]) and its uniforms are shifted
    into [r, r+1], so the rows concatenate into one ascending array and
    :func:`search_shifted_cdf` can search them in one call. A uniform whose
    shift rounds up to r + 1 is held one ulp below it, so every key lands
    on a positive-weight particle of its own row.
    """
    w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    if w.shape[0] != u.shape[0]:
        raise ValueError(f"row mismatch: weights {w.shape} vs uniforms {u.shape}")
    F, m = w.shape
    c = rws_cdf(w)
    offsets = np.arange(F, dtype=np.float64)[:, None]
    c += offsets
    keys = u + offsets
    np.minimum(keys, shifted_key_bounds(F), out=keys)
    idx = search_shifted_cdf(c, keys)
    idx -= np.arange(0, F * m, m, dtype=np.intp).reshape(F, 1)
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
