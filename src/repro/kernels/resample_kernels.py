"""Work-group resampling kernels: RWS and Vose's alias method.

These are the device forms of Section VI-F. The RWS kernel is a parallel
prefix sum plus one binary search per output sample. The Vose kernel follows
the paper's construction: the small/large worklists are built *in place* by
filling a single array forwards with small elements and backwards with large
elements using atomic operations, then pairs are processed
``min(#large, #small)`` at a time — and the returned concurrency trace makes
the paper's observation that "concurrency usually drops steeply towards one"
directly measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.device.simt import WorkGroup
from repro.utils.validation import check_power_of_two


def _hillis_steele_inclusive_scan(wg: WorkGroup, values: np.ndarray) -> np.ndarray:
    """Inclusive scan with one lane per element (log n lock-step steps)."""
    mem = wg.local_array(values.size)
    mem.scatter(wg.lane, values)
    wg.barrier()
    offset = 1
    while offset < values.size:
        active = wg.lane >= offset
        src = np.maximum(wg.lane - offset, 0)
        gathered = mem.gather(src)
        cur = mem.gather(wg.lane)
        new = wg.select(active, cur + gathered, cur)
        wg.barrier()  # read phase done before the write phase
        mem.scatter(wg.lane, new)
        wg.barrier()
        offset <<= 1
    return mem.gather(wg.lane)


def rws_workgroup(wg: WorkGroup, weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Roulette Wheel Selection by one work group (one lane per particle).

    Initialization: parallel prefix sum of the weights, each lane dividing
    its entry by the total and clamping it at 1.0 (the tree-ordered scan
    may round a partial sum above the total); a group with no finite
    positive total draws uniformly, as the batch form does. Generation:
    each lane binary-searches the clamped CDF for its uniform (Theta(log n)
    lock-step gathers, bank conflicts billed naturally).
    """
    n = wg.size
    check_power_of_two(n, "group size")
    weights = np.asarray(weights, dtype=np.float64)
    uniforms = np.asarray(uniforms, dtype=np.float64)
    if weights.size != n or uniforms.size != n:
        raise ValueError("one weight and one uniform per lane required")
    cum_vals = _hillis_steele_inclusive_scan(wg, weights)
    total = cum_vals[n - 1]
    if not (np.isfinite(total) and total > 0):
        cum_vals, total = (wg.lane + 1).astype(np.float64), float(n)
    cdf_vals = np.minimum(cum_vals / total, 1.0)
    wg.op()
    cum = wg.local_array(n)
    cum.scatter(wg.lane, cdf_vals)
    wg.barrier()
    # Binary search: find the first index with cdf[idx] > u.
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, n - 1, dtype=np.int64)
    steps = int(np.log2(n)) + 1
    for _ in range(steps):
        mid = (lo + hi) // 2
        vals = cum.gather(mid)
        go_right = vals <= uniforms
        lo = wg.select(go_right, mid + 1, lo)
        hi = wg.select(go_right, hi, mid)
        wg.op()
    return np.minimum(lo, n - 1)


def alias_sample_workgroup(wg: WorkGroup, prob: np.ndarray, alias: np.ndarray, u_select: np.ndarray, u_coin: np.ndarray) -> np.ndarray:
    """Theta(1) alias-table generation: one gather + one predicated select."""
    n = prob.size
    table_p = wg.local_array(n)
    table_a = wg.local_array(n, dtype=np.int64)
    table_p.scatter(wg.lane % n, np.asarray(prob)[wg.lane % n])
    table_a.scatter(wg.lane % n, np.asarray(alias)[wg.lane % n])
    wg.barrier()
    col = np.minimum((np.asarray(u_select) * n).astype(np.int64), n - 1)
    p = table_p.gather(col)
    a = table_a.gather(col)
    return wg.select(np.asarray(u_coin) < p, col, a).astype(np.int64)


@dataclass
class AliasBuildTrace:
    """Instrumentation of the parallel alias-table construction."""

    rounds: int = 0
    concurrency: list[int] = field(default_factory=list)  # pairs processed per round

    @property
    def final_concurrency(self) -> int:
        return self.concurrency[-1] if self.concurrency else 0


def alias_build_workgroup(wg: WorkGroup, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, AliasBuildTrace]:
    """Build an alias table in one work group, the paper's way.

    Phase 1: classify each particle and append it to an in-place worklist —
    smalls fill the array forwards, larges backwards, positions claimed with
    atomic counters. Phase 2: process ``min(#small, #large)`` pairs per
    round; a large whose residual drops below the mean is re-appended to the
    small side. The trace records per-round pair counts, which collapse
    toward one for skewed weight distributions.
    """
    n = wg.size
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size != n:
        raise ValueError("one weight per lane required")
    scaled = weights * n / weights.sum()
    prob = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)

    worklist = wg.local_array(n, dtype=np.int64)
    counters = wg.local_array(2, dtype=np.int64)  # [small_count, large_count]
    is_small = scaled < 1.0
    t_small = wg.atomic_add_scalar(counters, 0, is_small)
    t_large = wg.atomic_add_scalar(counters, 1, ~is_small)
    pos = np.where(is_small, t_small, n - 1 - t_large)
    worklist.scatter(pos, wg.lane)
    wg.barrier()

    n_small = int(counters[0])
    n_large = int(counters[1])
    small_head = 0
    trace = AliasBuildTrace()
    residual = scaled.copy()

    while n_small > 0 and n_large > 0:
        k = min(n_small, n_large)
        trace.rounds += 1
        trace.concurrency.append(k)
        s_idx = worklist.gather(np.arange(small_head, small_head + k))
        l_idx = worklist.gather(np.arange(n - n_large, n - n_large + k))
        prob[s_idx] = residual[s_idx]
        alias[s_idx] = l_idx
        residual[l_idx] -= 1.0 - residual[s_idx]
        wg.op(3)
        wg.barrier()
        small_head += k
        n_small -= k
        # Reclassify the paired larges: those below the mean join the smalls.
        now_small = residual[l_idx] < 1.0
        n_new_small = int(now_small.sum())
        if n_new_small:
            # Append to the small region; the atomic tickets bill the cost of
            # the in-place compaction the real kernel performs.
            wg.atomic_add_scalar(counters, 0, np.isin(wg.lane, l_idx[now_small]))
            worklist.scatter(np.arange(small_head + n_small, small_head + n_small + n_new_small), l_idx[now_small])
            n_small += n_new_small
        # The paired larges leave the large region regardless; survivors
        # (still >= 1) go back at its new tail.
        survivors = l_idx[~now_small]
        n_large -= k
        if survivors.size:
            worklist.scatter(np.arange(n - n_large - survivors.size, n - n_large), survivors)
            n_large += survivors.size
        wg.barrier()

    return prob, alias, trace
