"""Global-estimate reduction operators.

Delivering a single estimate from the weighted population is a two-round
reduction in the paper: first locally per sub-filter, then globally over the
local results. The reduction operator is application-specific; the paper
"selects the particle with the highest global weight", and we also provide
the weighted mean (the usual MMSE estimate).
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import healthy_round


def _finite_fallback(flat_states: np.ndarray) -> np.ndarray:
    """Unweighted mean over the particles whose state is fully finite.

    The rescue estimate when no usable weight survives. If *every* particle
    is corrupt there is nothing left to estimate from; return zeros rather
    than NaN so the caller's trajectory stays finite (and visibly wrong,
    which is the honest signal at total data loss).
    """
    finite = np.isfinite(flat_states).all(axis=1)
    if finite.any():
        return flat_states[finite].mean(axis=0).astype(np.float64)
    return np.zeros(flat_states.shape[-1], dtype=np.float64)


def max_weight_estimate(states: np.ndarray, log_weights: np.ndarray) -> np.ndarray:
    """The single particle with the highest weight in the whole population.

    ``states`` is ``(..., m, d)`` and ``log_weights`` ``(..., m)``; the
    reduction flattens all leading axes, which is exactly the local-then-
    global max reduction (max is associative).

    Robustness: NaN log-weights and particles with non-finite states are
    excluded from the argmax (a plain ``argmax`` would return the first NaN
    slot). If no candidate survives, falls back to the mean of the finite
    particles so one poisoned sub-filter cannot emit a NaN estimate.
    """
    states = np.asarray(states)
    lw = np.asarray(log_weights, dtype=np.float64)
    flat_states = states.reshape(-1, states.shape[-1])
    if healthy_round(lw, flat_states):  # every particle is usable
        return flat_states[int(np.argmax(lw))].astype(np.float64)
    flat_lw = lw.reshape(-1).copy()
    usable = ~np.isnan(flat_lw) & np.isfinite(flat_states).all(axis=1)
    flat_lw[~usable] = -np.inf
    idx = int(np.argmax(flat_lw))
    if not np.isfinite(flat_lw[idx]):
        return _finite_fallback(flat_states)
    return flat_states[idx].astype(np.float64)


def weighted_mean_estimate(states: np.ndarray, log_weights: np.ndarray) -> np.ndarray:
    """Self-normalized importance-sampling mean over the whole population.

    Robustness: particles with NaN log-weight or non-finite state carry zero
    mass *and* zero contribution (a zero weight times a NaN coordinate would
    otherwise still yield NaN in the dot product). A population with no
    finite mass falls back to the mean of the finite particles.
    """
    states = np.asarray(states, dtype=np.float64)
    lw = np.asarray(log_weights, dtype=np.float64).reshape(-1).copy()
    flat = states.reshape(-1, states.shape[-1])
    finite_state = np.isfinite(flat).all(axis=1)
    lw[np.isnan(lw) | ~finite_state] = -np.inf
    peak = lw.max()
    if not np.isfinite(peak):
        return _finite_fallback(flat)
    w = np.exp(lw - peak)
    total = w.sum()
    if not np.isfinite(total) or total <= 0:
        return _finite_fallback(flat)
    contrib = np.where(finite_state[:, None], flat, 0.0)
    return (w @ contrib) / total


def local_estimates(states: np.ndarray, log_weights: np.ndarray, kind: str = "max_weight") -> np.ndarray:
    """Per-sub-filter estimates: ``states`` (F, m, d) -> (F, d)."""
    states = np.asarray(states)
    lw = np.asarray(log_weights)
    lw = np.where(np.isnan(lw), -np.inf, np.asarray(lw, dtype=np.float64))
    if kind == "max_weight":
        idx = np.argmax(lw, axis=1)
        return np.take_along_axis(states, idx[:, None, None], axis=1)[:, 0, :].astype(np.float64)
    if kind == "weighted_mean":
        peak = lw.max(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            w = np.exp(lw - peak)  # all--inf rows yield NaN here ...
        w = np.where(np.isfinite(w), w, 0.0)
        total = w.sum(axis=1, keepdims=True)
        m = lw.shape[1]
        # ... and degenerate rows (zero mass) fall back to a uniform average.
        w = np.where(total > 0, w / np.where(total > 0, total, 1.0), 1.0 / m)
        return np.einsum("fm,fmd->fd", w, states).astype(np.float64)
    raise ValueError(f"unknown estimator kind {kind!r}")


def global_estimate(states: np.ndarray, log_weights: np.ndarray, kind: str = "max_weight") -> np.ndarray:
    """Population-wide estimate by name."""
    if kind == "max_weight":
        return max_weight_estimate(states, log_weights)
    if kind == "weighted_mean":
        return weighted_mean_estimate(states, log_weights)
    raise ValueError(f"unknown estimator kind {kind!r}")
