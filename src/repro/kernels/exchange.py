"""Particle-exchange routing kernels (batched forms).

Given each sub-filter's outgoing contribution (its best-t particles), these
functions compute what every sub-filter *receives*:

- :func:`route_pairwise` — Ring/Torus/graph topologies: gather each
  neighbour's contribution via the dense neighbour table (a batched gather,
  which is exactly the device kernel's shape).
- :func:`route_pooled` — All-to-All: all contributions enter one global
  pool; every sub-filter reads back the same top-t of the pool.

Both are used by :class:`~repro.core.distributed.DistributedParticleFilter`
and by the multiprocessing master (the routing is identical whether the
blocks live in one address space or many).
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import take_into

_NEG_INF = -np.inf


def route_pairwise(
    send_states: np.ndarray,
    send_logw: np.ndarray,
    table: np.ndarray,
    mask: np.ndarray,
    out_states: np.ndarray | None = None,
    out_logw: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Receive buffers for pairwise exchange.

    Parameters
    ----------
    send_states / send_logw:
        ``(F, t, d)`` / ``(F, t)`` — each sub-filter's outgoing particles.
    table / mask:
        ``(F, D)`` neighbour table padded with -1 and its validity mask.
    out_states / out_logw:
        optional preallocated C-contiguous receive buffers ``(F, D*t, d)``
        (matching ``send_states`` dtype) and ``(F, D*t)`` float64; when given
        the gather writes in place and returns them, enabling allocation-free
        rounds (and zero-copy routing into shared-memory slabs).

    Returns
    -------
    ``(recv_states (F, D*t, d), recv_logw (F, D*t))`` with padded slots
    carrying ``-inf`` weight so they can never be resampled.
    """
    send_states = np.asarray(send_states)
    send_logw = np.asarray(send_logw)
    table = np.asarray(table)
    mask = np.asarray(mask, dtype=bool)
    if send_states.ndim != 3 or send_logw.shape != send_states.shape[:2]:
        raise ValueError("send_states must be (F, t, d) with matching send_logw (F, t)")
    if table.shape != mask.shape or table.shape[0] != send_states.shape[0]:
        raise ValueError("table/mask must be (F, D)")
    F, t, d = send_states.shape
    D = table.shape[1]
    src = np.maximum(table, 0)
    if out_states is None and out_logw is None:
        recv_states = send_states[src]  # (F, D, t, d)
        recv_logw = np.where(mask[:, :, None], send_logw[src], _NEG_INF)  # (F, D, t)
        return recv_states.reshape(F, D * t, d), recv_logw.reshape(F, D * t)
    if out_states is None or out_logw is None:
        raise ValueError("out_states and out_logw must be given together")
    if out_states.shape != (F, D * t, d) or out_logw.shape != (F, D * t):
        raise ValueError("out buffers must be (F, D*t, d) / (F, D*t)")
    if not (out_states.flags.c_contiguous and out_logw.flags.c_contiguous):
        raise ValueError("out buffers must be C-contiguous")
    take_into(send_states, src, out_states.reshape(F, D, t, d), axis=0)
    take_into(send_logw, src, out_logw.reshape(F, D, t), axis=0)
    out_logw.reshape(F, D, t)[~mask] = _NEG_INF
    return out_states, out_logw


def mask_dead_sources(table: np.ndarray, mask: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """Shrink a neighbour-table validity mask to live endpoints only.

    ``alive`` is a boolean liveness vector ``(F,)``. A table slot stays
    valid only when both the receiving sub-filter and the slot's source are
    alive — dead sub-filters neither deliver particles nor consume any.
    This is the cheap per-round guard (a pair of gathers, same shape as the
    routing kernels); full rerouting with bridged connectivity is the
    :class:`repro.resilience.TopologyHealer`'s job.
    """
    table = np.asarray(table)
    mask = np.asarray(mask, dtype=bool)
    alive = np.asarray(alive, dtype=bool)
    if table.shape != mask.shape:
        raise ValueError("table/mask must share shape (F, D)")
    if alive.shape != (table.shape[0],):
        raise ValueError(f"alive must be (F,) = ({table.shape[0]},), got {alive.shape}")
    src = np.maximum(table, 0)
    return mask & alive[src] & alive[:, None]


def pooled_top_t_indices(flat_logw: np.ndarray, t: int) -> np.ndarray:
    """Indices of the pool's *t* best weights, best first.

    Bit-identical to ``np.argsort(-flat_logw, kind="stable")[:t]`` — the
    stable-descending convention every backend shares — but via
    ``np.partition`` when ``t`` is much smaller than the pool, so the cost is
    O(n + t log t) instead of O(n log n). The threshold partition keeps the
    stable tie order exactly: candidates strictly above the cutoff all
    qualify; candidates *at* the cutoff qualify in index order until t is
    reached (which is precisely what a stable descending sort yields,
    including ``-inf`` ties). A NaN cutoff (NaNs sort last under ``-x`` but
    poison comparisons) falls back to the full stable argsort.
    """
    n = flat_logw.size
    if t >= n:
        return np.argsort(-flat_logw, kind="stable")[:t]
    thr = np.partition(flat_logw, n - t)[n - t]
    if np.isnan(thr):
        return np.argsort(-flat_logw, kind="stable")[:t]
    idx_gt = np.flatnonzero(flat_logw > thr)
    if idx_gt.size > t:
        # NaNs present: > comparisons excluded them but they outrank nothing;
        # the stable order among the survivors still needs the full tiebreak.
        return np.argsort(-flat_logw, kind="stable")[:t]
    idx_eq = np.flatnonzero(flat_logw == thr)[: t - idx_gt.size]
    cand = np.concatenate([idx_gt, idx_eq])
    if cand.size < t:
        # NaNs below the cutoff stole slots; only the full sort ranks them.
        return np.argsort(-flat_logw, kind="stable")[:t]
    order = np.argsort(-flat_logw[cand], kind="stable")
    return cand[order]


def route_pooled(
    send_states: np.ndarray,
    send_logw: np.ndarray,
    t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Receive buffers for All-to-All pooled exchange.

    All contributions are pooled; every sub-filter receives copies of the
    pool's *t* globally best particles — the "same particles fed into all
    sub-filters" behaviour that collapses diversity. Selection switches to
    the partition-based :func:`pooled_top_t_indices` (registered as the
    cheaper ``route_pooled_topk`` cost signature) once ``t`` is small
    relative to the pool; results are bit-identical either way.
    """
    send_states = np.asarray(send_states)
    send_logw = np.asarray(send_logw)
    if send_states.ndim != 3 or send_logw.shape != send_states.shape[:2]:
        raise ValueError("send_states must be (F, t', d) with matching send_logw")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    F, tp, d = send_states.shape
    flat_states = send_states.reshape(F * tp, d)
    flat_logw = send_logw.reshape(F * tp)
    if t * 8 <= flat_logw.size:
        top = pooled_top_t_indices(flat_logw, t)
    else:
        top = np.argsort(-flat_logw, kind="stable")[:t]
    recv_states = np.broadcast_to(flat_states[top], (F, top.size, d))
    recv_logw = np.broadcast_to(flat_logw[top], (F, top.size))
    return recv_states, recv_logw
