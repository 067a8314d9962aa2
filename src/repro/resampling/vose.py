"""Vose's alias method: Theta(n) init, Theta(1) generation per sample.

Two table constructions are provided:

- :func:`build_alias_table` - the textbook sequential small/large worklist
  algorithm (Vose 1991), the reference used by the paper's sequential
  centralized filter.
- :func:`build_alias_table_parallel` - a data-parallel construction in the
  spirit of the paper's GPU kernel, which "operates on min(#large, #small)
  particle pairs at a time" and whose "concurrency usually drops steeply
  towards one". Ours alternates two vectorized rounds: a *bulk* prefix-sum
  assignment (each heavy item absorbs every light item whose deficit interval
  falls fully inside its excess segment - this retires almost everything in
  one pass for heavy-tailed particle weights) and a *paired* round (light i
  paired with heavy i) that guarantees progress when bulk assignment stalls.

Both constructions produce exact alias tables: column i keeps probability
``prob[i]`` of returning i and otherwise returns ``alias[i]``, and the total
mass of every index equals its normalized weight.
"""

from __future__ import annotations

import numpy as np

from repro.prng.streams import FilterRNG
from repro.resampling.base import Resampler
from repro.utils.arrays import normalize_weights
from repro.utils.validation import check_probability_vector


def build_alias_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sequential textbook construction. Returns ``(prob, alias)``."""
    w = check_probability_vector(weights)
    n = w.size
    scaled = (w / w.sum()) * n
    prob = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        l = large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] -= 1.0 - scaled[s]
        (small if scaled[l] < 1.0 else large).append(l)
    # Leftovers have mass 1 up to rounding.
    for i in small + large:
        prob[i] = 1.0
    return prob, alias


def build_alias_table_parallel(weights: np.ndarray, max_rounds: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Data-parallel exact construction (bulk + paired vectorized rounds)."""
    w = check_probability_vector(weights)
    n = w.size
    scaled = ((w / w.sum()) * n).astype(np.float64)
    prob = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    small = np.flatnonzero(scaled < 1.0)
    large = np.flatnonzero(scaled >= 1.0)
    if max_rounds is None:
        max_rounds = 4 * int(np.ceil(np.log2(n + 1))) + 64

    for _ in range(max_rounds):
        if small.size == 0 or large.size == 0:
            break
        # ---- bulk round: prefix-sum interval containment ------------------
        d = 1.0 - scaled[small]            # light deficits (> 0)
        e = scaled[large] - 1.0            # heavy excesses (>= 0)
        D = np.cumsum(d)
        D0 = D - d
        E = np.cumsum(e)
        E0 = np.concatenate(([0.0], E[:-1]))
        j = np.searchsorted(E, D, side="left")  # candidate heavy per light
        contained = (j < large.size) & (D0 >= E0[np.minimum(j, large.size - 1)])
        if np.any(contained):
            s_idx = small[contained]
            l_pos = j[contained]
            prob[s_idx] = scaled[s_idx]
            alias[s_idx] = large[l_pos]
            absorbed = np.bincount(l_pos, weights=d[contained], minlength=large.size)
            scaled[large] -= absorbed
            small = small[~contained]
        else:
            # ---- paired round: light i donates to heavy i -----------------
            k = min(small.size, large.size)
            s_idx, l_idx = small[:k], large[:k]
            prob[s_idx] = scaled[s_idx]
            alias[s_idx] = l_idx
            scaled[l_idx] -= 1.0 - scaled[s_idx]
            small = small[k:]
        went_small = large[scaled[large] < 1.0]
        large = large[scaled[large] >= 1.0]
        small = np.concatenate([small, went_small])

    # Whatever survives the round cap is within fp noise of mass 1, or is
    # handled exactly by the sequential finish.
    if small.size and large.size:
        sub_w = np.zeros(n)
        rest = np.concatenate([small, large])
        sub_w[rest] = scaled[rest]
        p2, a2 = build_alias_table(sub_w[rest] / sub_w[rest].sum())
        prob[rest] = p2
        alias[rest] = rest[a2]
    else:
        prob[np.concatenate([small, large]).astype(np.int64)] = 1.0
    return prob, alias


def alias_sample(prob: np.ndarray, alias: np.ndarray, u_select: np.ndarray, u_coin: np.ndarray) -> np.ndarray:
    """Theta(1)-per-sample generation: pick a column, flip its biased coin.

    ``prob``/``alias`` are 1-D tables; batched tables go through
    :meth:`VoseAliasResampler.resample_batch`.
    """
    prob = np.asarray(prob)
    if prob.ndim != 1:
        raise ValueError("alias_sample expects a 1-D table")
    n = prob.size
    col = np.minimum((np.asarray(u_select) * n).astype(np.int64), n - 1)
    take_col = np.asarray(u_coin) < prob[col]
    return np.where(take_col, col, alias[col]).astype(np.int64)


class VoseAliasResampler(Resampler):
    """Alias-method resampler.

    Parameters
    ----------
    parallel_build:
        use the data-parallel table construction (GPU-kernel analogue)
        instead of the sequential textbook worklists.
    """

    name = "vose"

    def __init__(self, parallel_build: bool = False):
        self.parallel_build = bool(parallel_build)

    def _build(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.parallel_build:
            return build_alias_table_parallel(w)
        return build_alias_table(w)

    def resample(self, weights: np.ndarray, n_out: int, rng: FilterRNG) -> np.ndarray:
        w = self._validate(weights, n_out)
        prob, alias = self._build(normalize_weights(w))
        u = rng.uniform((2, n_out))
        return alias_sample(prob, alias, u[0], u[1])

    def resample_batch(self, weights: np.ndarray, n_out: int, rng: FilterRNG) -> np.ndarray:
        w = self._batch_weights(weights)
        F, m = w.shape
        probs = np.empty((F, m))
        aliases = np.empty((F, m), dtype=np.int64)
        for f in range(F):
            probs[f], aliases[f] = self._build(normalize_weights(w[f]))
        u = rng.uniform((2, F, n_out))
        col = np.minimum((u[0] * m).astype(np.int64), m - 1)
        rows = np.arange(F)[:, None]
        take = u[1] < probs[rows, col]
        return np.where(take, col, aliases[rows, col]).astype(np.int64)
