"""Effective sample size and resample-when policies.

Section IV of the paper: "we have experimented with the suggested metric to
compute the effective sample size as well as a simpler resampling frequency
parameter (each sub-filter randomly decides to resample at a fixed ratio of
the time). ... frequent resampling generally yields better results." All
three options are provided so that trade-off is reproducible.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.prng.streams import FilterRNG
from repro.utils.arrays import normalize_weights


def effective_sample_size(weights: np.ndarray, axis: int = -1) -> np.ndarray:
    """ESS = 1 / sum(w_norm^2); equals n for uniform weights, 1 when one
    particle holds all mass. Works row-wise for batched weights."""
    w = normalize_weights(np.asarray(weights, dtype=np.float64), axis=axis)
    return 1.0 / np.sum(w * w, axis=axis)


class ResamplingPolicy(abc.ABC):
    """Decides, per sub-filter and per round, whether to resample."""

    @abc.abstractmethod
    def should_resample(self, weights: np.ndarray, rng: FilterRNG,
                        widths: np.ndarray | None = None) -> np.ndarray:
        """``weights`` is (n_filters, m); returns a bool mask of shape (n_filters,).

        ``widths`` carries each sub-filter's live particle count when the
        population uses the padded width-aware layout (padded slots hold
        zero weight); ``None`` means every row is fully live.
        """


class AlwaysResample(ResamplingPolicy):
    """The paper's default: resample every round."""

    def should_resample(self, weights: np.ndarray, rng: FilterRNG,
                        widths: np.ndarray | None = None) -> np.ndarray:
        return np.ones(np.atleast_2d(weights).shape[0], dtype=bool)


class ESSThresholdPolicy(ResamplingPolicy):
    """Resample a sub-filter only when its ESS falls below ``ratio * m_i``.

    ``m_i`` is the sub-filter's *live* width: under the width-aware layout
    (and for healed populations whose masked particles carry zero weight) a
    row's padded/masked slots must not inflate the threshold. Comparing
    against the padded ``weights.shape[1]`` would make a shrunken sub-filter
    resample every round even when its live particles are perfectly diverse.
    A row with no usable mass reads ESS 0 (as in ``subfilter_ess``): its pool revives it.
    """

    def __init__(self, ratio: float = 0.5):
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.ratio = float(ratio)

    def should_resample(self, weights: np.ndarray, rng: FilterRNG,
                        widths: np.ndarray | None = None) -> np.ndarray:
        w = np.atleast_2d(weights)
        live = w.shape[1] if widths is None else np.asarray(widths, dtype=np.float64)
        massless = ~(np.isfinite(w) & (w > 0)).any(axis=1)
        return massless | (effective_sample_size(w, axis=1) < self.ratio * live)


class RandomFrequencyPolicy(ResamplingPolicy):
    """Each sub-filter independently resamples with probability ``frequency``
    per round — the paper's data-independent alternative that keeps the
    control flow suitable for resource-constrained real-time systems."""

    def __init__(self, frequency: float = 1.0):
        if not 0.0 <= frequency <= 1.0:
            raise ValueError(f"frequency must be in [0, 1], got {frequency}")
        self.frequency = float(frequency)

    def should_resample(self, weights: np.ndarray, rng: FilterRNG,
                        widths: np.ndarray | None = None) -> np.ndarray:
        n = np.atleast_2d(weights).shape[0]
        if self.frequency >= 1.0:
            return np.ones(n, dtype=bool)
        return rng.uniform((n,)) < self.frequency
