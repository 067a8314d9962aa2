"""Resampler interface shared by all algorithms."""

from __future__ import annotations

import abc

import numpy as np

from repro.prng.streams import FilterRNG
from repro.utils.validation import check_positive_int, check_probability_vector


class Resampler(abc.ABC):
    """Sampling-with-replacement from a discrete weight distribution.

    Implementations return *index* arrays; callers apply them to particle
    state (the paper's kernels likewise reorder state vectors after the
    surviving indices are known, preferring non-contiguous reads over
    non-contiguous writes).
    """

    name: str = "base"

    @abc.abstractmethod
    def resample(self, weights: np.ndarray, n_out: int, rng: FilterRNG) -> np.ndarray:
        """Draw *n_out* indices i with probability proportional to weights[i].

        ``weights`` is 1-D and need not be normalized.
        """

    def resample_batch(self, weights: np.ndarray, n_out: int, rng: FilterRNG) -> np.ndarray:
        """Row-wise resampling for a ``(n_filters, m)`` weight matrix.

        Returns ``(n_filters, n_out)`` indices into each row. The default
        implementation loops over rows; vectorized subclasses override it.
        """
        weights = self._batch_weights(weights)
        out = np.empty((weights.shape[0], n_out), dtype=np.int64)
        for f in range(weights.shape[0]):
            out[f] = self.resample(weights[f], n_out, rng)
        return out

    @staticmethod
    def _batch_weights(weights: np.ndarray) -> np.ndarray:
        """The ``(rows, n)`` float64 weight matrix of a batch call.

        Every ``resample_batch`` checks its weights here before it draws, so
        a negative weight raises like :meth:`resample` does and leaves the
        RNG untouched. Only negative weights are rejected: a NaN row (a
        degenerate pool) is left to the algorithm, as it always was.
        """
        w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        if (w < 0.0).any():
            raise ValueError("weights must be non-negative")
        return w

    @staticmethod
    def _validate(weights: np.ndarray, n_out: int) -> np.ndarray:
        w = check_probability_vector(weights)
        check_positive_int(n_out, "n_out")
        return w


def resample_counts(indices: np.ndarray, n: int) -> np.ndarray:
    """Occurrence count of each ancestor index; useful for invariant checks."""
    return np.bincount(np.asarray(indices).reshape(-1), minlength=n)
