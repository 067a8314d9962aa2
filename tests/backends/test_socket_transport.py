"""Socket transport: framing, handshake, and failure-taxonomy classification.

The contract under test: every way a TCP peer can fail maps onto the same
typed failure taxonomy the pipe transport uses, so the master's retry /
heal / respawn ladder needs no transport-specific cases —

- a clean close between frames  → ``EOFError``          → ``WorkerCrashedError``
- a close in the middle of one  → ``TruncatedFrameError`` (EOFError subtype)
- a connection reset mid-gather → ``ConnectionResetError`` (OSError)
- a handshake that never lands  → ``WorkerTimeoutError`` after the
  ``RetryPolicy`` deadline spends its backoff windows.
"""

import socket
import struct
import time

import numpy as np
import pytest

from repro.backends.socket_transport import (
    FrameConnection,
    SocketMasterChannel,
    SocketTransport,
    TruncatedFrameError,
)
from repro.backends.transport import make_transport, transport_caps
from repro.core import DistributedFilterConfig
from repro.models import LinearGaussianModel
from repro.prng import make_rng
from repro.resilience import FaultPlan
from repro.resilience.errors import WorkerCrashedError, WorkerTimeoutError
from repro.resilience.retry import RetryPolicy


def frame_pair():
    a, b = socket.socketpair()
    return FrameConnection(a), FrameConnection(b)


class TestFrameConnection:
    def test_roundtrip_preserves_arrays_bitwise(self):
        a, b = frame_pair()
        try:
            payload = ("phase1", np.arange(12.0).reshape(3, 4), {"k": 1})
            a.send(payload)
            kind, arr, meta = b.recv()
            assert kind == "phase1" and meta == {"k": 1}
            np.testing.assert_array_equal(arr, payload[1])
            assert a.bytes_sent == b.bytes_received > 0
        finally:
            a.close(), b.close()

    def test_poll_sees_queued_frames(self):
        a, b = frame_pair()
        try:
            assert b.poll(0.0) is False
            a.send(("x",))
            assert b.poll(1.0) is True
        finally:
            a.close(), b.close()

    def test_clean_close_between_frames_is_eof(self):
        a, b = frame_pair()
        a.send(("last",))
        a.close()
        assert b.recv() == ("last",)
        with pytest.raises(EOFError) as err:
            b.recv()
        # EOF at a frame boundary is a *clean* close, not a truncation.
        assert not isinstance(err.value, TruncatedFrameError)
        b.close()

    def test_partial_frame_is_truncated_frame_error(self):
        a, b = frame_pair()
        # Header promises 100 payload bytes; peer dies after 3.
        a._sock.sendall(struct.pack(">Q", 100) + b"abc")
        a.close()
        with pytest.raises(TruncatedFrameError) as err:
            b.recv()
        assert err.value.received == 3
        assert isinstance(err.value, EOFError)  # crash-classified upstream
        b.close()

    def test_partial_header_is_truncated_frame_error(self):
        a, b = frame_pair()
        a._sock.sendall(b"\x00\x00\x00")  # 3 of 8 header bytes
        a.close()
        with pytest.raises(TruncatedFrameError):
            b.recv()
        b.close()

    def test_oversize_header_refused(self):
        from repro.backends.socket_transport import MAX_FRAME_BYTES

        a, b = frame_pair()
        a._sock.sendall(struct.pack(">Q", MAX_FRAME_BYTES + 1))
        with pytest.raises(OSError):
            b.recv()
        a.close(), b.close()

    def test_reset_mid_gather_is_oserror(self):
        # A real TCP pair (RST needs TCP): abortive close via SO_LINGER 0
        # sends a reset, and the blocked reader gets ConnectionResetError —
        # an OSError, which the gather classifies as a worker crash.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        client = socket.create_connection(listener.getsockname())
        server, _ = listener.accept()
        listener.close()
        a, b = FrameConnection(client), FrameConnection(server)
        a.send(("about to die",))
        assert b.recv() == ("about to die",)
        a._sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                           struct.pack("ii", 1, 0))
        a._sock.close()
        a._sock = None
        with pytest.raises(OSError) as err:
            b.recv()  # unread RST surfaces on the next read
        assert not isinstance(err.value, EOFError)
        b.close()


class TestHandshake:
    def test_deadline_expiry_is_worker_timeout(self):
        transport = SocketTransport(
            handshake=RetryPolicy(timeout=0.05, max_retries=1))
        master, _worker = transport.channel_pair(None, None)
        t0 = time.perf_counter()
        with pytest.raises(WorkerTimeoutError):
            master.after_start()  # nobody ever dials in
        # The deadline honoured its backoff windows (timeout * retries),
        # not a single window and not forever.
        assert 0.04 < time.perf_counter() - t0 < 5.0

    def test_connect_then_accept_delivers_frames(self):
        master, worker = SocketTransport().channel_pair(None, None)
        try:
            worker.send(("hello", 42))  # queued in the listener backlog
            master.after_start()
            assert master.conn.recv() == ("hello", 42)
            assert master.bytes_received > 0
        finally:
            master.close()
            worker.close()

    def test_registry_and_caps(self):
        caps = transport_caps("tcp")
        assert caps.framed and caps.byte_counters
        assert not caps.zero_copy
        assert caps.elastic
        t = make_transport("socket")  # alias
        assert t.name == "tcp"


class TestRetryPolicyTimesSockets:
    """RetryPolicy × socket failure modes through a real backend run."""

    def _run(self, **kw):
        model = LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]],
                                    R=[[0.01]])
        cfg = DistributedFilterConfig(n_particles=16, n_filters=8, seed=3,
                                      estimator="weighted_mean", n_exchange=1)
        truth = model.simulate(8, make_rng("numpy", seed=1))
        from repro.backends import MultiprocessDistributedParticleFilter

        with MultiprocessDistributedParticleFilter(
                model, cfg, n_workers=2, transport="tcp", **kw) as pf:
            ests = [pf.step(z) for z in truth.measurements]
            report = pf.report.summary()
            dead = pf.dead_workers
        return ests, report, dead

    def test_peer_killed_mid_gather_classifies_as_crash_and_heals(self):
        # SIGKILL closes the worker's socket mid-round: the master sees
        # EOF/reset on the stream, classifies WorkerCrashedError, and the
        # heal rung retires the shard without poisoning the run.
        plan = FaultPlan(seed=0).kill(worker=1, step=3)
        ests, report, dead = self._run(fault_plan=plan, on_failure="heal",
                                       recv_timeout=15.0)
        assert list(dead) == [1]
        assert report["n_failures"] >= 1
        assert any(f["kind"] == "crash" for f in report["failures"])
        assert all(np.isfinite(np.asarray(e)).all() for e in ests)

    def test_peer_killed_with_raise_propagates_worker_crash(self):
        plan = FaultPlan(seed=0).kill(worker=0, step=2)
        with pytest.raises(WorkerCrashedError):
            self._run(fault_plan=plan, on_failure="raise", recv_timeout=15.0)
