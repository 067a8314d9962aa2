"""The multiprocess backend's data plane: pipe vs shared-memory transports.

Every filtering round moves the same four payloads between the master and a
worker block: the scattered measurement/control, the gathered top-t send
buffers + per-block estimate partials (weighted mean only), and the routed
incoming particles for the local resample. :class:`PipeTransport` moves all
of them as pickles over ``multiprocessing`` pipes — simple, but every round
pays serialization and pipe-buffer copies proportional to the payload.
:class:`SharedMemoryTransport` keeps the payloads in preallocated, double-buffered
:class:`multiprocessing.shared_memory.SharedMemory` slabs that the worker
inherits over ``fork``; the pipes then carry only tiny control headers
(round counter, exchange width, slab sequence number), so the per-round
byte traffic through the kernel is O(1) instead of O(payload).

Protocol
--------
Each channel pair owns one shared segment holding **two** copies of a
:class:`SlabLayout` (one per round parity ``k % 2``). Round ``k`` writes only
buffer ``k & 1``; the master never reuses a buffer until the worker has
acknowledged the next header for it, which the strict phase1 → phase2 → k+1
lockstep of the backend guarantees. Headers are:

- master → worker  ``("phase1", k, t, seq, z_spec, u_spec, trace, widths?)``
- worker → master  ``("p1", k, seq, heal_stats)``  (payload in the slab)
- master → worker  ``("phase2s", k, width)``        (payload in the slab)

``widths?`` is a flag (shm) or an inline int64 vector (pipe): under adaptive
allocation the master scatters each block's per-sub-filter live widths with
phase 1 (shm: the ``widths`` slab field), and the worker ships back its
pre-resample allocation metrics — per-sub-filter ESS and weight-mass
log-sum-exp — in the ``ess`` / ``mass_lse`` slab fields (pipe: inline tuple
members). Fixed allocation never touches any of these.

``trace`` is the per-round telemetry context: when the master's tracer is
enabled the flag rides the phase-1 header (both transports), the worker
records stage/kernel spans for the round, and ships them — with its clock
reading for offset alignment — in the phase-2 reply.

Payloads that do not fit their slab (an oversized measurement, or a healed
topology whose routed width exceeds the preallocated capacity) transparently
fall back to the inline pickle form of the pipe transport, so correctness
never depends on the capacity estimate. Every such fallback is counted on
the master channel (``fallbacks``) and surfaces as the backend's
``transport_fallbacks`` telemetry counter. Rare control messages (``init``,
``adopt``, ``get_state``, ``stop``) and structured ``("error", traceback)``
replies always travel inline on the pipe.

Failure / reclaim semantics
---------------------------
The *master* channel owns the segment: :meth:`ShmMasterChannel.reclaim`
closes and **unlinks** it (unlinking also unregisters it from the
``resource_tracker``, so no leak warnings are emitted even when the worker
was killed mid-round and never ran its own ``close``). ``close``/``reclaim``
are idempotent and guard against ``BufferError`` from still-exported NumPy
views — the unlink always happens. Workers only ever ``close`` their
inherited mapping, never unlink.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

_ALIGN = 64  # slab field alignment [bytes]; keeps rows cache-line friendly


@dataclass(frozen=True)
class TransportCaps:
    """What a transport's data plane can and cannot do.

    The backend probes these instead of matching on transport names, so new
    transports only have to describe themselves:

    - ``zero_copy``: payloads move through preallocated shared slabs rather
      than being serialized per round.
    - ``framed``: payloads are serialized frames whose shapes may change
      round to round — a prerequisite for elastic ownership (a worker's
      sub-filter count growing mid-run) and for shard-aware cut-only
      exchange, neither of which fits a fixed-size slab.
    - ``cross_host``: the wire could, in principle, span machines (the
      channel is address-based, not fd-inheritance-based).
    - ``byte_counters``: the channel counts bytes on the wire
      (``bytes_sent`` / ``bytes_received`` on ``chan.conn``), feeding the
      cut-edge byte telemetry.
    """

    zero_copy: bool = False
    framed: bool = True
    cross_host: bool = False
    byte_counters: bool = False

    @property
    def elastic(self) -> bool:
        """Framed transports tolerate per-worker shapes changing mid-run."""
        return self.framed


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class SlabField:
    """One named array inside a slab buffer."""

    name: str
    offset: int  # byte offset from the buffer base
    shape: tuple[int, ...]
    dtype: np.dtype


class SlabLayout:
    """Byte layout of everything one worker block moves per round.

    Parameters
    ----------
    n_block:
        sub-filters owned by the worker (``B``).
    n_particles / state_dim:
        per-sub-filter particle count ``m`` and state dimension ``d``.
    t_cap:
        top-t send capacity per sub-filter (``max(n_exchange, 1)``).
    recv_cap:
        incoming-particle capacity per sub-filter. Sized with healing slack
        for pairwise topologies; routed widths beyond it fall back to the
        inline pipe path.
    meas_cap / ctrl_cap:
        float64 element capacity of the scatter slots.
    dtype:
        the particle-state dtype.
    weight_dtype:
        the log-weight dtype (default float64; a float32
        :class:`~repro.core.dtypes.DtypePolicy` shrinks the weight slabs to
        match so the wire format is exactly the in-memory format). Estimate
        partials and allocation metrics stay float64 regardless — they are
        reductions.
    """

    def __init__(self, n_block: int, n_particles: int, state_dim: int,
                 t_cap: int, recv_cap: int, meas_cap: int, ctrl_cap: int,
                 dtype, weight_dtype=None) -> None:
        self.n_block = int(n_block)
        self.n_particles = int(n_particles)
        self.state_dim = int(state_dim)
        self.t_cap = int(t_cap)
        self.recv_cap = int(recv_cap)
        self.meas_cap = int(meas_cap)
        self.ctrl_cap = int(ctrl_cap)
        self.dtype = np.dtype(dtype)
        self.weight_dtype = np.dtype(np.float64 if weight_dtype is None else weight_dtype)
        B, d, f64 = self.n_block, self.state_dim, np.dtype(np.float64)
        wdt = self.weight_dtype
        specs = [
            # gather (worker → master)
            ("send_states", (B, self.t_cap, d), self.dtype),
            ("send_logw", (B, self.t_cap), wdt),
            ("best_states", (B, d), self.dtype),
            ("best_logw", (B,), wdt),
            # per-sub-filter estimate partials [w·x (d) | w.sum | row shift]:
            # keyed by global filter id on the master, so the weighted-mean
            # reduction is invariant to how filters are sharded over workers.
            ("partial", (B, d + 2), f64),
            # adaptive-allocation metrics (worker → master; fixed: unused)
            ("ess", (B,), f64),
            ("mass_lse", (B,), f64),
            # per-sub-filter live widths (master → worker; fixed: unused)
            ("widths", (B,), np.dtype(np.int64)),
            # routed exchange (master → worker)
            ("recv_states", (B, self.recv_cap, d), self.dtype),
            ("recv_logw", (B, self.recv_cap), wdt),
            # scatter (master → worker)
            ("meas", (self.meas_cap,), f64),
            ("ctrl", (self.ctrl_cap,), f64),
        ]
        self.fields: dict[str, SlabField] = {}
        offset = 0
        for name, shape, dt in specs:
            self.fields[name] = SlabField(name, offset, shape, dt)
            offset += _align(int(np.prod(shape)) * dt.itemsize)
        #: bytes of ONE buffer; a segment holds two (double buffering).
        self.nbytes = max(offset, _ALIGN)

    @property
    def segment_nbytes(self) -> int:
        """Total segment size: two buffers plus the heartbeat tail."""
        return 2 * self.nbytes + _ALIGN

    def heartbeat_view(self, buf) -> np.ndarray:
        """The out-of-band liveness slots appended after both buffers.

        Two int64 words: ``[0]`` the worker's monotonic beat counter,
        ``[1]`` the phase code of the latest beat. The region sits outside
        the double-buffered payload area, so heartbeat publication never
        races the round's data exchange — the master may read it at any
        time, including mid-phase.
        """
        return np.ndarray((2,), dtype=np.int64, buffer=buf,
                          offset=2 * self.nbytes)

    def views(self, buf, parity: int) -> dict[str, np.ndarray]:
        """NumPy views of every field of buffer ``parity`` over *buf*."""
        base = int(parity) * self.nbytes
        return {
            f.name: np.ndarray(f.shape, dtype=f.dtype, buffer=buf,
                               offset=base + f.offset)
            for f in self.fields.values()
        }


# ---------------------------------------------------------------------------
# Pipe transport: the classic pickle-everything data plane.
# ---------------------------------------------------------------------------


class PipeMasterChannel:
    """Master end of a pipe-only channel: every payload is pickled."""

    n_segments = 0
    #: inline-fallback count; always 0 for the pipe transport, whose inline
    #: form *is* the normal path rather than a degraded one.
    fallbacks = 0

    def __init__(self, parent, child):
        self.conn = parent
        self._child = child
        self._beat_count = 0

    def after_start(self) -> None:
        """Drop the worker-side pipe end so EOF means "worker gone"."""
        self._child.close()

    # -- heartbeats -----------------------------------------------------------
    def note_beat(self, msg) -> None:
        """Absorb an out-of-band ``("beat", count, code)`` pipe message."""
        self._beat_count = max(self._beat_count, int(msg[1]))

    def heartbeat(self) -> int:
        """Latest liveness counter observed from the worker."""
        return self._beat_count

    # -- control-plane passthrough ------------------------------------------
    def request(self, msg) -> None:
        self.conn.send(msg)

    # -- phase 1 -------------------------------------------------------------
    def send_phase1(self, z, u, k: int, t: int, trace: bool = False,
                    widths=None) -> int:
        """Scatter the round inputs; returns the inline-fallback count (0).

        ``widths`` (adaptive allocation only) is the block's per-sub-filter
        live-width vector for this round; the worker resizes before sampling.
        """
        w = None if widths is None else np.ascontiguousarray(widths, dtype=np.int64)
        self.conn.send(("phase1", z, u, k, t, bool(trace), w))
        return 0

    def decode_phase1(self, msg, t: int):
        """The 7-tuple ``(send_states, send_logw, best_states, best_logw,
        partial, heal_stats, alloc)`` — already inline for the pipe
        transport. ``partial`` is ``None`` unless the estimator is the
        weighted mean; ``alloc`` is ``None`` (fixed allocation) or the
        block's ``(ess, mass_lse)`` metric vectors."""
        return msg

    # -- phase 2 -------------------------------------------------------------
    def phase2_buffers(self, k: int, width: int):
        """Writable routing destination, or ``None`` (pipe: route to scratch)."""
        return None

    def send_phase2_ready(self, k: int, width: int) -> None:  # pragma: no cover
        raise RuntimeError("pipe transport has no shared phase-2 buffers")

    def send_phase2(self, k: int, states, logw) -> bool:
        """Deliver the routed particles; returns True iff this send had to
        fall back from a shared slab to the inline pickle form (never, for
        the pipe transport)."""
        if states is None:
            self.conn.send(("phase2", None, None))
        else:
            self.conn.send(("phase2", np.ascontiguousarray(states),
                            np.ascontiguousarray(logw)))
        return False

    def decode_phase2(self, msg) -> tuple[dict, dict, dict | None]:
        return msg[1], msg[2], msg[3] if len(msg) > 3 else None

    # -- lifecycle -----------------------------------------------------------
    def reclaim(self) -> int:
        """Release transport resources; number of shared segments unlinked."""
        return 0

    def close(self) -> int:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        return self.reclaim()


class PipeWorkerChannel:
    """Worker end of a pipe-only channel."""

    def __init__(self, conn):
        self.conn = conn
        self._beats = 0

    def beat(self, code: int = 0) -> None:
        """Publish liveness: one tiny ``("beat", count, code)`` message.

        Beats also wake the master's ``connection.wait`` immediately, so on
        the pipe transport heartbeat *arrival* is event-driven even though
        miss detection is clocked by the supervisor's check interval.
        Failures are swallowed — a dying pipe must not mask the real fault.
        """
        self._beats += 1
        try:
            self.conn.send(("beat", self._beats, int(code)))
        except (OSError, ValueError, BrokenPipeError):  # pragma: no cover
            pass

    def recv(self):
        return self.conn.recv()

    def send(self, obj) -> None:
        self.conn.send(obj)

    def reply_phase1(self, k: int, send_states, send_logw, best_states,
                     best_logw, partial, heal_stats, alloc=None) -> None:
        self.conn.send((send_states, np.ascontiguousarray(send_logw),
                        best_states.copy(), best_logw.copy(), partial,
                        heal_stats, alloc))

    def reply_phase2(self, stage_seconds: dict, kernel_seconds: dict,
                     telemetry: dict | None = None) -> None:
        self.conn.send(("ok", stage_seconds, kernel_seconds, telemetry))

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class PipeTransport:
    """Pickle-over-pipe data plane (the reference transport)."""

    name = "pipe"
    caps = TransportCaps(zero_copy=False, framed=True, cross_host=False)

    def channel_pair(self, ctx, layout: SlabLayout):
        parent, child = ctx.Pipe()
        return PipeMasterChannel(parent, child), PipeWorkerChannel(child)


# ---------------------------------------------------------------------------
# Shared-memory transport: slabs carry the data, pipes carry headers.
# ---------------------------------------------------------------------------


def _pack_scatter(slot: np.ndarray, arr):
    """Stage a scatter array into a float64 slab slot.

    Returns the spec shipped in the header: ``None`` (no array),
    ``("shm", shape)`` (payload in the slot) or ``("inline", arr)`` when the
    array does not fit or is not float64-exact (non-float64 dtypes keep their
    exact bit pattern only on the inline path).
    """
    if arr is None:
        return None
    a = np.asarray(arr)
    if a.dtype != np.float64 or a.size > slot.size:
        return ("inline", arr)
    slot[: a.size] = a.reshape(-1)
    return ("shm", a.shape)


def _unpack_scatter(slot: np.ndarray, spec):
    if spec is None:
        return None
    kind, payload = spec
    if kind == "inline":
        return payload
    size = int(np.prod(payload)) if payload else 1
    return slot[:size].reshape(payload).copy()


class ShmMasterChannel:
    """Master end of a shared-memory channel.

    Owns the shared segment (created *before* fork so the worker inherits
    the mapping — no name-based re-attach, hence no ``resource_tracker``
    double registration) and the double-buffered views into it.
    """

    def __init__(self, ctx, layout: SlabLayout):
        parent, child = ctx.Pipe()
        self.conn = parent
        self._child = child
        self.layout = layout
        self._seg: shared_memory.SharedMemory | None = shared_memory.SharedMemory(
            create=True, size=layout.segment_nbytes
        )
        self._views = (layout.views(self._seg.buf, 0), layout.views(self._seg.buf, 1))
        self._hb = layout.heartbeat_view(self._seg.buf)
        self._hb[:] = 0
        self._seq = 0
        #: payload sends that had to leave the slab for the inline pipe path
        #: (oversized scatter arrays, healed-wider phase-2 widths).
        self.fallbacks = 0
        #: the worker-side channel, built pre-fork so the child inherits the
        #: segment object (and its views) directly through ``fork``.
        self.worker = ShmWorkerChannel(child, self._seg, self._views, layout)

    @property
    def n_segments(self) -> int:
        return 1 if self._seg is not None else 0

    def after_start(self) -> None:
        self._child.close()

    def request(self, msg) -> None:
        self.conn.send(msg)

    # -- phase 1 -------------------------------------------------------------
    def send_phase1(self, z, u, k: int, t: int, trace: bool = False,
                    widths=None) -> int:
        """Scatter the round inputs; returns how many arrays fell back inline."""
        self._seq += 1
        v = self._views[k & 1]
        z_spec = _pack_scatter(v["meas"], z)
        u_spec = _pack_scatter(v["ctrl"], u)
        fell_back = sum(1 for spec in (z_spec, u_spec)
                        if spec is not None and spec[0] == "inline")
        self.fallbacks += fell_back
        has_widths = widths is not None
        if has_widths:
            v["widths"][...] = widths
        self.conn.send(("phase1", k, t, self._seq, z_spec, u_spec, bool(trace),
                        has_widths))
        return fell_back

    def decode_phase1(self, msg, t: int):
        if not (isinstance(msg, tuple) and msg and msg[0] == "p1"):
            raise RuntimeError(f"shm protocol: expected p1 ack, got {msg!r}")
        _, k, seq, heal_stats = msg
        if seq != self._seq:
            raise RuntimeError(
                f"shm protocol: stale slab ack (seq {seq} != {self._seq})")
        v = self._views[k & 1]
        # The partial / metric views are handed out unconditionally; the master
        # reads (copies) them only under the weighted mean / adaptive allocation.
        return (v["send_states"], v["send_logw"], v["best_states"],
                v["best_logw"], v["partial"], heal_stats,
                (v["ess"], v["mass_lse"]))

    # -- phase 2 -------------------------------------------------------------
    def phase2_buffers(self, k: int, width: int):
        """Zero-copy routing destination when *width* fits the slab."""
        if width > self.layout.recv_cap:
            return None
        v = self._views[k & 1]
        return v["recv_states"][:, :width], v["recv_logw"][:, :width]

    def send_phase2_ready(self, k: int, width: int) -> None:
        self.conn.send(("phase2s", k, width))

    def send_phase2(self, k: int, states, logw) -> bool:
        """Deliver the routed particles; True iff the slab was bypassed."""
        if states is None:
            self.conn.send(("phase2s", k, 0))
            return False
        bufs = self.phase2_buffers(k, states.shape[1])
        if bufs is None:
            # Healed topology grew past the preallocated capacity: fall back
            # to the inline pipe form for this round.
            self.fallbacks += 1
            self.conn.send(("phase2", np.ascontiguousarray(states),
                            np.ascontiguousarray(logw)))
            return True
        bufs[0][...] = states
        bufs[1][...] = logw
        self.send_phase2_ready(k, states.shape[1])
        return False

    def decode_phase2(self, msg) -> tuple[dict, dict, dict | None]:
        return msg[1], msg[2], msg[3] if len(msg) > 3 else None

    # -- heartbeats -----------------------------------------------------------
    def note_beat(self, msg) -> None:
        """No-op: shm beats live in the slab tail, never on the pipe."""

    def heartbeat(self) -> int:
        """Read the worker's liveness counter straight from shared memory."""
        if self._hb is None:
            return -1
        return int(self._hb[0])

    # -- lifecycle -----------------------------------------------------------
    def reclaim(self) -> int:
        """Close and unlink the shared segment (idempotent).

        Unlink always runs — it is what unregisters the segment from the
        ``resource_tracker`` — even if ``close`` hits a ``BufferError`` from
        a still-exported view.
        """
        if self._seg is None:
            return 0
        self._views = ()
        self._hb = None
        try:
            self._seg.close()
        except BufferError:  # pragma: no cover - view still exported
            pass
        try:
            self._seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self._seg = None
        return 1

    def close(self) -> int:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        return self.reclaim()


class ShmWorkerChannel:
    """Worker end of a shared-memory channel.

    Translates slab headers into the same logical messages the pipe worker
    receives, so the worker loop is transport-agnostic.
    """

    def __init__(self, conn, seg, views, layout: SlabLayout):
        self.conn = conn
        self._seg = seg
        self._views = views
        self.layout = layout
        self._seq = 0
        self._hb = layout.heartbeat_view(seg.buf)
        self._beats = 0

    def beat(self, code: int = 0) -> None:
        """Publish liveness into the slab tail — truly out-of-band.

        An aligned int64 store the master can read at any instant without
        any pipe traffic; the code slot is written *before* the counter so a
        reader that sees the new count also sees its phase code.
        """
        if self._hb is None:  # pragma: no cover - beat after close
            return
        self._beats += 1
        self._hb[1] = int(code)
        self._hb[0] = self._beats

    def recv(self):
        msg = self.conn.recv()
        kind = msg[0] if isinstance(msg, tuple) and msg else None
        if kind == "phase1":
            _, k, t, seq, z_spec, u_spec, trace, has_widths = msg
            self._seq = seq
            v = self._views[k & 1]
            # Copy out of the slab: the widths outlive this round's buffer.
            widths = v["widths"].copy() if has_widths else None
            return ("phase1", _unpack_scatter(v["meas"], z_spec),
                    _unpack_scatter(v["ctrl"], u_spec), k, t, trace, widths)
        if kind == "phase2s":
            _, k, width = msg
            if width == 0:
                return ("phase2", None, None)
            v = self._views[k & 1]
            return ("phase2", v["recv_states"][:, :width],
                    v["recv_logw"][:, :width])
        return msg

    def send(self, obj) -> None:
        self.conn.send(obj)

    def reply_phase1(self, k: int, send_states, send_logw, best_states,
                     best_logw, partial, heal_stats, alloc=None) -> None:
        v = self._views[k & 1]
        v["send_states"][...] = send_states
        v["send_logw"][...] = send_logw
        v["best_states"][...] = best_states
        v["best_logw"][...] = best_logw
        if partial is not None:
            v["partial"][...] = partial
        if alloc is not None:
            v["ess"][...] = alloc[0]
            v["mass_lse"][...] = alloc[1]
        self.conn.send(("p1", k, self._seq, heal_stats))

    def reply_phase2(self, stage_seconds: dict, kernel_seconds: dict,
                     telemetry: dict | None = None) -> None:
        self.conn.send(("ok", stage_seconds, kernel_seconds, telemetry))

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        # The worker only drops its inherited mapping; the master owns the
        # segment's lifetime (and the unlink).
        self._views = ()
        self._hb = None
        if self._seg is not None:
            try:
                self._seg.close()
            except BufferError:  # pragma: no cover
                pass
            self._seg = None


class SharedMemoryTransport:
    """Zero-copy data plane over ``multiprocessing.shared_memory`` slabs."""

    name = "shm"
    caps = TransportCaps(zero_copy=True, framed=False, cross_host=False)

    def channel_pair(self, ctx, layout: SlabLayout):
        master = ShmMasterChannel(ctx, layout)
        return master, master.worker


_TRANSPORTS = {
    "pipe": PipeTransport,
    "shm": SharedMemoryTransport,
    "shared_memory": SharedMemoryTransport,
}


def transport_choices() -> list[str]:
    """The registered transport names, sorted — the CLI's choices list."""
    return sorted(_TRANSPORTS)


def transport_caps(spec) -> TransportCaps:
    """The :class:`TransportCaps` a spec resolves to (without building it)."""
    if isinstance(spec, str):
        try:
            return _TRANSPORTS[spec].caps
        except KeyError:
            raise ValueError(
                f"unknown transport {spec!r}; expected one of {sorted(_TRANSPORTS)}"
            ) from None
    return spec.caps


def make_transport(spec):
    """Resolve a transport spec: a name, a class, or an instance."""
    if isinstance(spec, str):
        try:
            return _TRANSPORTS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown transport {spec!r}; expected one of {sorted(_TRANSPORTS)}"
            ) from None
    if isinstance(spec, type):
        return spec()
    return spec


# The socket transport lives in its own module (it builds on the pipe
# channels defined above); importing it registers "tcp" in ``_TRANSPORTS``.
# The import is effect-only — socket_transport registers itself at its own
# module bottom, which keeps the mutual import safe whichever side loads
# first.
from repro.backends import socket_transport as _socket_transport  # noqa: E402, F401
