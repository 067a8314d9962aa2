"""TCP socket transport: the cross-host data plane.

Same logical protocol as the pipe transport — every payload is one pickled
message — but carried over a loopback/LAN TCP stream as length-prefixed
frames instead of an inherited pipe fd. The wire schema (phase-1 tuple,
phase-2 tuple, in-band beats) is byte-for-byte the pipe transport's, so the
parity suite's golden traces transfer unchanged; only the byte carrier
differs.

Framing
-------
Each frame is ``[u64 big-endian payload length][pickle payload]``. A frame
is written with one ``sendall`` and read with exact-length ``recv_into``
loops, so a reader never sees an interleaved or partial message:

- a clean close *between* frames surfaces as :class:`EOFError` (exactly how
  a closed pipe behaves, so the master's gather classifies it as a worker
  crash);
- a close *inside* a frame (peer died mid-send) raises
  :class:`TruncatedFrameError` — an :class:`EOFError` subclass carrying how
  many bytes were expected vs received;
- a connection reset raises ``ConnectionResetError`` (an ``OSError``),
  again matching the pipe's failure surface.

Handshake
---------
The master binds one loopback listener per channel pair *before* the fork
and the worker connects from the child; the listener's backlog holds the
connection until the master accepts it in :meth:`SocketMasterChannel.
after_start`. The accept is bounded by a :class:`~repro.resilience.retry.
RetryPolicy` deadline — each backoff window is one ``accept`` timeout, and
deadline expiry classifies as :class:`~repro.resilience.errors.
WorkerTimeoutError` (a worker that never dialed in is indistinguishable
from a hung one).

Both connection ends count ``bytes_sent`` / ``bytes_received``, which the
backend surfaces as ``transport.bytes_*`` telemetry counters — the
measurement behind the cut-edge-bytes benchmark.
"""

from __future__ import annotations

import pickle
import socket
import time

from repro.backends.transport import (
    PipeMasterChannel,
    PipeWorkerChannel,
    TransportCaps,
)
from repro.resilience.errors import WorkerTimeoutError
from repro.resilience.retry import RetryPolicy

_HEADER_BYTES = 8
#: Frames above this are refused on read — a corrupted header otherwise
#: turns into a multi-gigabyte allocation before the pickle even fails.
MAX_FRAME_BYTES = 1 << 34


class TruncatedFrameError(EOFError):
    """The peer closed the stream in the middle of a frame."""

    def __init__(self, expected: int, received: int):
        super().__init__(
            f"truncated frame: expected {expected} bytes, got {received}")
        self.expected = int(expected)
        self.received = int(received)


class FrameConnection:
    """A ``multiprocessing.connection.Connection``-alike over a TCP socket.

    Implements the subset the backend's gather loop uses — ``send`` /
    ``recv`` / ``poll`` / ``fileno`` / ``close`` — so
    ``multiprocessing.connection.wait`` can multiplex socket channels and
    pipe channels in the same call.
    """

    def __init__(self, sock: socket.socket):
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # non-TCP socket (tests use AF_UNIX pairs): latency knob only
        sock.setblocking(True)
        self._sock: socket.socket | None = sock
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- Connection interface -------------------------------------------------
    def send(self, obj) -> None:
        if self._sock is None:
            raise OSError("send on closed FrameConnection")
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        header = len(payload).to_bytes(_HEADER_BYTES, "big")
        self._sock.sendall(header + payload)
        self.bytes_sent += _HEADER_BYTES + len(payload)

    def recv(self):
        header = self._recv_exact(_HEADER_BYTES, frame_start=True)
        n = int.from_bytes(header, "big")
        if n > MAX_FRAME_BYTES:
            raise OSError(f"frame of {n} bytes exceeds MAX_FRAME_BYTES "
                          f"({MAX_FRAME_BYTES}); corrupted header?")
        return pickle.loads(self._recv_exact(n))

    def poll(self, timeout: float = 0.0) -> bool:
        if self._sock is None:
            return False
        import select

        ready, _, _ = select.select([self._sock], [], [], timeout)
        return bool(ready)

    def fileno(self) -> int:
        if self._sock is None:
            raise OSError("fileno on closed FrameConnection")
        return self._sock.fileno()

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass
        self._sock = None

    @property
    def closed(self) -> bool:
        return self._sock is None

    # -- internals ------------------------------------------------------------
    def _recv_exact(self, n: int, frame_start: bool = False) -> bytes:
        """Read exactly *n* bytes; EOF between frames vs inside one differ."""
        if self._sock is None:
            raise EOFError("recv on closed FrameConnection")
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            chunk = self._sock.recv_into(view[got:], n - got)
            if chunk == 0:
                if frame_start and got == 0:
                    raise EOFError("connection closed")
                raise TruncatedFrameError(
                    expected=n if frame_start else n + _HEADER_BYTES,
                    received=got)
            got += chunk
            self.bytes_received += chunk
        return bytes(buf)


class SocketMasterChannel(PipeMasterChannel):
    """Master end: pipe-channel logic over an accepted frame connection.

    Until :meth:`after_start` accepts the worker's dial-in, ``conn`` is
    ``None`` — the backend calls ``after_start`` right after spawning the
    worker process, before any traffic.
    """

    def __init__(self, listener: socket.socket, handshake: RetryPolicy):
        self._listener: socket.socket | None = listener
        self._handshake = handshake
        self.conn: FrameConnection | None = None
        self._beat_count = 0

    def after_start(self) -> None:
        """Accept the worker's connection under the handshake deadline."""
        if self._listener is None:  # pragma: no cover - repeated call
            return
        deadline = self._handshake.deadline(time.monotonic())
        while True:
            now = time.monotonic()
            self._listener.settimeout(max(deadline.remaining(now), 1e-3))
            try:
                sock, _addr = self._listener.accept()
                break
            except socket.timeout:
                now = time.monotonic()
                if deadline.expire(now) == "timeout":
                    self._close_listener()
                    raise WorkerTimeoutError(
                        f"socket handshake: no worker connected within "
                        f"{self._handshake.timeout:.1f}s") from None
                # "retry": the deadline granted another backoff window —
                # keep listening until the windows are spent.
        self._close_listener()
        self.conn = FrameConnection(sock)

    def _close_listener(self) -> None:
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
            self._listener = None

    @property
    def bytes_sent(self) -> int:
        return self.conn.bytes_sent if self.conn is not None else 0

    @property
    def bytes_received(self) -> int:
        return self.conn.bytes_received if self.conn is not None else 0

    def close(self) -> int:
        self._close_listener()
        if self.conn is not None:
            self.conn.close()
        return self.reclaim()


class SocketWorkerChannel(PipeWorkerChannel):
    """Worker end: connects to the master's listener lazily.

    The channel object is built in the master process (pre-fork) but holds
    only the address; the actual ``connect`` happens in the worker child on
    first use of :attr:`conn`, so the socket is owned by exactly one
    process. Every pipe-channel method then runs unchanged over the frames.
    """

    def __init__(self, address: tuple[str, int], connect_timeout: float = 30.0):
        self._address = address
        self._connect_timeout = float(connect_timeout)
        self._conn: FrameConnection | None = None
        self._beats = 0

    @property
    def conn(self) -> FrameConnection:
        if self._conn is None:
            sock = socket.create_connection(
                self._address, timeout=self._connect_timeout)
            sock.settimeout(None)
            self._conn = FrameConnection(sock)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()


class SocketTransport:
    """Length-prefixed pickled frames over loopback TCP.

    ``host`` defaults to loopback; a cross-host deployment would bind the
    master's address here and start workers with the advertised endpoints
    (the channel protocol itself never assumes shared memory or a shared
    process tree — only the current spawner does).
    """

    name = "tcp"
    caps = TransportCaps(zero_copy=False, framed=True, byte_counters=True)

    def __init__(self, host: str = "127.0.0.1",
                 handshake: RetryPolicy | None = None):
        self.host = host
        self.handshake = handshake or RetryPolicy(timeout=30.0, max_retries=1)

    def channel_pair(self, ctx, layout):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind((self.host, 0))
        listener.listen(1)
        address = listener.getsockname()
        return (SocketMasterChannel(listener, self.handshake),
                SocketWorkerChannel(address))


# Self-registration keeps the transport registry's lazy mutual import safe
# regardless of whether this module or repro.backends.transport loads first.
from repro.backends import transport as _transport  # noqa: E402

_transport._TRANSPORTS.setdefault("tcp", SocketTransport)
_transport._TRANSPORTS.setdefault("socket", SocketTransport)
