"""The cohort: many same-shaped sessions stepped as one slab.

A :class:`Cohort` owns a ``(R * X, m, d)`` population slab holding ``R``
sessions of ``X`` sub-filters each (block ``j`` owns rows
``[j*X, (j+1)*X)``), a block-diagonal neighbour table (``R`` disjoint
copies of the session topology, so exchange never crosses a session
boundary), and one :class:`~repro.engine.round.Round` — the solo filter's
vector stages, or its fused round in the fused envelope — stepped over a
per-size copy of the round's context whose ``block_rows`` keeps healing,
the estimate, the mass share and allocation inside each session block.
One :meth:`step` call advances every ready session by one filtering round
through a single pipeline pass — the paper's many-core batching argument
applied across *filters* instead of across particles.

Parity contract: a session stepped through a cohort produces bit-identical
estimates, populations, widths and counters to the same session stepped
alone on a :class:`~repro.core.DistributedParticleFilter`, for any
interleaving of cohort-mates attaching, detaching or idling.
"""

from __future__ import annotations

import numpy as np

from repro.engine.round import Round, prior_population
from repro.engine.state import FilterState
from repro.prng.streams import numpy_generator
from repro.sessions.rng import CohortRNG
from repro.sessions.session import FilterSession
from repro.topology import resolve_topology


def block_table(base: np.ndarray, n_blocks: int) -> np.ndarray:
    """``n_blocks`` disjoint copies of the ``(X, deg)`` neighbour table
    *base*, block ``j`` offset by ``j * X``; absent neighbours stay ``-1``.
    The table of ``R`` blocks is the first ``R * X`` rows of any larger one.
    """
    X, deg = base.shape
    offsets = np.arange(n_blocks, dtype=base.dtype) * X
    return np.where(base[None, :, :] >= 0, base[None, :, :] + offsets[:, None, None],
                    base.dtype.type(-1)).reshape(n_blocks * X, deg)


class Cohort:
    """A slab of interchangeable-shape sessions stepped together."""

    def __init__(self, key, model, config, tracer=None,
                 scratch_cap_bytes: int | None = None):
        self.key = key
        self.model = model
        self.config = config
        self.X = config.n_filters
        self.sessions: list[FilterSession] = []
        self.rng = CohortRNG()
        # Stages read only the session topology's ``pooled`` kind; routing
        # goes through the block tables (the envelope admits a pooled
        # topology only when its exchange is empty).
        topology = resolve_topology(config.topology, self.X)
        rnd = self._round = Round(model, config, self.rng, tracer=tracer, topology=topology,
                                  state=FilterState(scratch_cap_bytes=scratch_cap_bytes))
        self.timer, self.kernel_hook, self.pipeline = rnd.timer, rnd.kernel_hook, rnd.pipeline
        #: the round's state is the full slab; ``_sub`` is the persistent
        #: gather target for ticks where only a subset of sessions has work
        #: (its scratch pool and fused plan are reused whenever the same
        #: subset size recurs).
        self._state = rnd.state
        self._sub = FilterState(scratch_cap_bytes=scratch_cap_bytes)
        self._base_table = topology.neighbor_table()
        #: the block-diagonal table of the most blocks stepped so far; every
        #: context's table and mask are views of its leading rows.
        self._table = block_table(self._base_table, 0)
        self._mask = self._table >= 0
        self._ctx_cache: dict[int, object] = {}
        #: sessions with queued work, kept by the scheduler that owns the
        #: queues (batch-on-size reads it instead of scanning the cohort).
        self.queued = 0
        self.steps = 0

    def __len__(self) -> int:
        return len(self.sessions)

    # -- membership ----------------------------------------------------------
    def attach(self, sess: FilterSession) -> None:
        """Append *sess*'s population as the slab's last block."""
        if sess.states is None:
            sess.store_population(*prior_population(
                self.model, self.config, sess.rng, self._round.dtype_policy))
        states, logw, widths = sess.take_population()
        st = self._state
        if st.states is None:
            st.states = states
            st.log_weights = logw
            st.widths = widths
        else:
            if (st.widths is None) != (widths is None):
                raise ValueError("cohort-mates disagree on width layout")
            st.states = np.concatenate([st.states, states], axis=0)
            st.log_weights = np.concatenate([st.log_weights, logw], axis=0)
            if widths is not None:
                st.widths = np.concatenate([st.widths, widths])
        sess.cohort = self
        sess.block = len(self.sessions)
        sess.numpy_gen = numpy_generator(sess.rng)
        self.sessions.append(sess)
        self._membership_changed()

    def detach(self, sess: FilterSession) -> None:
        """Remove *sess* without disturbing any cohort-mate's rows or stream.

        The last block is swapped into the vacated slot and the slab is
        truncated — every remaining session keeps its own rows and its own
        generator, so remaining traces are unaffected by who leaves.
        """
        if sess.cohort is not self:
            raise ValueError(f"session {sess.session_id!r} is not in this cohort")
        X = self.X
        b = sess.block
        st = self._state
        last = len(self.sessions) - 1
        states = st.states[b * X:(b + 1) * X].copy()
        logw = st.log_weights[b * X:(b + 1) * X].copy()
        widths = None if st.widths is None else st.widths[b * X:(b + 1) * X].copy()
        if b != last:
            st.states[b * X:(b + 1) * X] = st.states[last * X:(last + 1) * X]
            st.log_weights[b * X:(b + 1) * X] = st.log_weights[last * X:(last + 1) * X]
            if st.widths is not None:
                st.widths[b * X:(b + 1) * X] = st.widths[last * X:(last + 1) * X]
            moved = self.sessions[last]
            self.sessions[b] = moved
            moved.block = b
        self.sessions.pop()
        if last == 0:
            st.states = st.log_weights = st.widths = None
        else:
            st.states = st.states[:last * X].copy()
            st.log_weights = st.log_weights[:last * X].copy()
            if st.widths is not None:
                st.widths = st.widths[:last * X].copy()
        sess.cohort = None
        sess.block = -1
        sess.store_population(states, logw, widths)
        self._membership_changed()

    def _membership_changed(self) -> None:
        # The slab shape changed: pooled scratch buffers and the fused plan
        # are keyed by shape and can never be served again — drop them so
        # they don't sit in (capped) scratch memory.
        for st in (self._state, self._sub):
            st.clear_scratch()
            if hasattr(st, "_fused_plan"):
                del st._fused_plan
        self._sub.states = self._sub.log_weights = self._sub.widths = None

    def session_rows(self, sess: FilterSession):
        """Views of *sess*'s ``(X, m, d)`` rows inside the slab."""
        X, b = self.X, sess.block
        st = self._state
        return (st.states[b * X:(b + 1) * X],
                st.log_weights[b * X:(b + 1) * X],
                None if st.widths is None else st.widths[b * X:(b + 1) * X])

    # -- stepping ------------------------------------------------------------
    def _ctx_for(self, R: int):
        ctx = self._ctx_cache.get(R)
        if ctx is None:
            X = self.X
            if self._table.shape[0] < R * X:
                self._table = block_table(self._base_table, R)
                self._mask = self._table >= 0
                for r, c in self._ctx_cache.items():
                    c.table, c.mask = self._table[:r * X], self._mask[:r * X]
            ctx = self._ctx_cache[R] = self._round.context(
                config=self.config.with_(n_filters=R * X), table=self._table[:R * X],
                mask=self._mask[:R * X], block_rows=X)
        return ctx

    @staticmethod
    def _pack(values, X: int) -> np.ndarray | None:
        """Stack per-session vectors and repeat per sub-filter row.

        ``(R,)`` payloads become a ``(R*X, 1, z)`` array: row blocks carry
        their own session's measurement and the singleton particle axis
        broadcasts against ``(rows, m, z)`` predictions — elementwise
        identical to the solo filter's plain-broadcast measurement. One
        ``np.array`` call keeps the payloads' own dtype, as the solo filter
        sees it. Every payload or none must be present (the scheduler
        splits a tick whose sessions disagree).
        """
        if values is None:
            return None
        try:
            packed = np.array(values)
        except ValueError:  # payload shapes differ, e.g. a scalar beside (1,)
            packed = np.stack([np.asarray(v).reshape(-1) for v in values])
        packed = packed.reshape(len(values), -1)
        if X > 1:
            packed = np.repeat(packed, X, axis=0)
        return packed[:, None, :]

    def step(self, ready: list[FilterSession], measurements, controls=None):
        """Advance every session in *ready* by one round; returns estimates.

        *ready* must be a subset of the cohort's sessions; ``measurements``
        (and ``controls``, present for every session or ``None``) align
        with it. Returns the round's ``(R, d)`` float64 estimates, row ``j``
        belonging to ``ready[j]``; that row is also the session's
        ``last_estimate``. A list built from :attr:`sessions` is already in
        block order, the slab's; any other order is stepped in block order
        and answered in the caller's.
        """
        blocks = [s.block for s in ready]
        if blocks == sorted(blocks):
            return self._step_blocks(ready, blocks, measurements, controls)
        order = sorted(range(len(ready)), key=blocks.__getitem__)
        est = self._step_blocks(
            [ready[i] for i in order], [blocks[i] for i in order],
            [measurements[i] for i in order],
            None if controls is None else [controls[i] for i in order])
        out = np.empty_like(est)
        out[order] = est
        return out

    def _step_blocks(self, ready, blocks, measurements, controls):
        """:meth:`step` over sessions in ascending block order."""
        R = len(ready)
        X = self.X
        st = self._state
        partial = R != len(self.sessions)
        if partial:
            rows = np.array(blocks, dtype=np.intp)
            if X > 1:
                rows = (rows[:, None] * X + np.arange(X, dtype=np.intp)).reshape(-1)
            state = self._sub
            state.states = st.states.take(rows, axis=0)
            state.log_weights = st.log_weights.take(rows, axis=0)
            state.widths = None if st.widths is None else st.widths.take(rows)
        else:
            state = st
        meas = self._pack(measurements, X)
        ctrl = self._pack(controls, X)
        ctx = self._ctx_for(R)
        ctx.sessions = ready
        self.rng.bind([s.rng for s in ready], X, [s.numpy_gen for s in ready])
        est = np.array(self.pipeline.run(ctx, state, meas, ctrl), dtype=np.float64)
        if partial:
            st.states[rows] = state.states
            st.log_weights[rows] = state.log_weights
            if st.widths is not None:
                st.widths[rows] = state.widths
        self.steps += 1
        for sess, e in zip(ready, est):
            sess.k += 1
            sess.last_estimate = e
        return est

    # -- introspection -------------------------------------------------------
    def scratch_stats(self) -> dict:
        """Combined scratch-pool stats of the slab and the subset buffer."""
        full = self._state.scratch_stats()
        sub = self._sub.scratch_stats()
        return {k: full[k] + sub[k] for k in full}
