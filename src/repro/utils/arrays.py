"""Small array utilities used throughout the library."""

from __future__ import annotations

import numpy as np


def is_power_of_two(n: int) -> bool:
    """True if *n* is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= *n* (n must be positive)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return 1 << (int(n) - 1).bit_length()


def healthy_round(log_weights: np.ndarray, states: np.ndarray | None = None) -> bool:
    """True when healing and the estimators' usability masks have nothing to do:
    no NaN or ``+inf`` weight, a finite weight per row (``-inf`` padding is fine)
    and every state finite. Whole-array passes: a per-particle check of
    ``states`` (``.all(axis=-1)``) costs ~10x more.
    """
    lw = np.asarray(log_weights)
    return bool((np.isfinite(lw).all() or np.isfinite(lw.max(axis=-1)).all())
                and (states is None or np.isfinite(states).all()))


def sanitize_log_weights(log_weights: np.ndarray, states: np.ndarray | None = None) -> int:
    """Neutralize unusable particles in place; returns how many were hit.

    A particle is unusable when its log-weight is NaN (a poisoned or
    miscomputed likelihood) or, if *states* is given, when any coordinate of
    its state is non-finite (corruption on the exchange wire). Both get a
    ``-inf`` log-weight, which every downstream kernel already treats as
    "never select": the shift-exp turns it into exact zero mass.

    ``log_weights`` must be a writable float array of shape ``(..., m)``;
    *states*, when given, is ``(..., m, d)`` with matching leading shape.
    """
    lw = np.asarray(log_weights)
    bad = np.isnan(lw)
    if states is not None:
        bad |= ~np.isfinite(np.asarray(states)).all(axis=-1)
    bad &= ~np.isneginf(lw)  # count only newly neutralized particles
    n = int(bad.sum())
    if n:
        lw[bad] = -np.inf
    return n


def degenerate_rows(log_weights: np.ndarray) -> np.ndarray:
    """Boolean mask of weight rows with *no* finite entry.

    Such a row carries zero usable probability mass — normalization would
    divide by zero and resampling has nothing to select — so the caller
    must rescue it (uniform reset, or rejuvenation from a neighbour).
    """
    return ~np.isfinite(np.asarray(log_weights)).any(axis=-1)


def rescue_degenerate_rows(log_weights: np.ndarray, states: np.ndarray | None = None) -> int:
    """Reset fully-degenerate weight rows to uniform, in place.

    Rows flagged by :func:`degenerate_rows` restart on ``logw = 0`` —
    restricted to particles with fully-finite states when *states* is given
    (corrupt particles stay at ``-inf``). A row whose particles are *all*
    corrupt still gets a plain uniform reset: there is nothing good left to
    prefer, and the estimator-side guards keep the output finite.
    Returns the number of rescued rows.
    """
    lw = np.asarray(log_weights)
    dead = degenerate_rows(lw)
    n = int(dead.sum())
    if not n:
        return 0
    if states is None:
        lw[dead] = 0.0
    else:
        ok = np.isfinite(np.asarray(states)[dead]).all(axis=-1)  # (n, m)
        rows = np.where(ok, 0.0, -np.inf)
        rows[~ok.any(axis=-1)] = 0.0
        lw[dead] = rows
    return n


def normalize_weights(w: np.ndarray, axis: int = -1) -> np.ndarray:
    """Normalize weights along *axis* to sum to one.

    Degenerate rows (all-zero or non-finite total) fall back to uniform
    weights, which is the conventional particle-filter rescue for a particle
    set whose likelihoods all underflowed.
    """
    w = np.asarray(w, dtype=np.float64)
    total = w.sum(axis=axis, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = w / total
    np.copyto(out, 1.0 / w.shape[axis], where=~np.isfinite(total) | (total <= 0))
    return out
