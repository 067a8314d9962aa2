"""Unit tests for the data-plane transports (slab layout + shm channels)."""

import multiprocessing
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.backends.transport import (
    PipeTransport,
    ShmMasterChannel,
    SharedMemoryTransport,
    SlabLayout,
    make_transport,
)

CTX = multiprocessing.get_context("fork")


def small_layout(**kw):
    base = dict(n_block=2, n_particles=8, state_dim=3, t_cap=4, recv_cap=8,
                meas_cap=4, ctrl_cap=2, dtype=np.float32)
    base.update(kw)
    return SlabLayout(**base)


class TestSlabLayout:
    def test_field_shapes_and_dtypes(self):
        lay = small_layout()
        f = lay.fields
        assert f["send_states"].shape == (2, 4, 3)
        assert f["send_states"].dtype == np.float32
        assert f["send_logw"].shape == (2, 4)
        assert f["send_logw"].dtype == np.float64  # log-weights always f64
        assert f["recv_states"].shape == (2, 8, 3)
        # One estimate partial per sub-filter row: [sum w*x | sum w | shift].
        assert f["partial"].shape == (2, 3 + 2)
        assert f["meas"].shape == (4,) and f["ctrl"].shape == (2,)

    def test_offsets_are_aligned_and_disjoint(self):
        lay = small_layout()
        fields = sorted(lay.fields.values(), key=lambda f: f.offset)
        end = 0
        for f in fields:
            assert f.offset % 64 == 0
            assert f.offset >= end  # no overlap
            end = f.offset + int(np.prod(f.shape)) * f.dtype.itemsize
        assert lay.nbytes >= end
        # Two payload buffers plus the out-of-band heartbeat tail.
        assert lay.segment_nbytes == 2 * lay.nbytes + 64

    def test_double_buffers_do_not_alias(self):
        lay = small_layout()
        buf = bytearray(lay.segment_nbytes)
        v0, v1 = lay.views(buf, 0), lay.views(buf, 1)
        v0["send_logw"][...] = 7.0
        v1["send_logw"][...] = -3.0
        assert (np.asarray(v0["send_logw"]) == 7.0).all()
        assert (np.asarray(v1["send_logw"]) == -3.0).all()

    def test_views_share_the_buffer(self):
        lay = small_layout()
        buf = bytearray(lay.segment_nbytes)
        lay.views(buf, 0)["best_logw"][...] = 5.0
        assert (np.asarray(lay.views(buf, 0)["best_logw"]) == 5.0).all()


class TestMakeTransport:
    def test_by_name(self):
        assert isinstance(make_transport("pipe"), PipeTransport)
        assert isinstance(make_transport("shm"), SharedMemoryTransport)
        assert isinstance(make_transport("shared_memory"), SharedMemoryTransport)

    def test_by_class_and_instance(self):
        assert isinstance(make_transport(PipeTransport), PipeTransport)
        inst = SharedMemoryTransport()
        assert make_transport(inst) is inst

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown transport"):
            make_transport("carrier-pigeon")


class TestShmChannelRoundtrip:
    """Master and worker channel ends exercised inside one process."""

    def make_pair(self, **kw):
        lay = small_layout(**kw)
        master = ShmMasterChannel(CTX, lay)
        return master, master.worker, lay

    def fill_phase1_reply(self, worker, lay, k, seed=0):
        rng = np.random.default_rng(seed)
        B, t, d = lay.n_block, lay.t_cap, lay.state_dim
        send_s = rng.normal(size=(B, t, d)).astype(lay.dtype)
        send_w = rng.normal(size=(B, t))
        best_s = rng.normal(size=(B, d)).astype(lay.dtype)
        best_w = rng.normal(size=(B,))
        # Per-sub-filter estimate partial rows: [sum w*x | sum w | shift].
        partial = rng.normal(size=(B, d + 2))
        worker.reply_phase1(k, send_s, send_w, best_s, best_w, partial, {"sanitized": 2})
        return send_s, send_w, best_s, best_w, partial

    def test_phase1_roundtrip_through_slab(self):
        master, worker, lay = self.make_pair()
        try:
            z = np.array([0.5, -1.0, 2.0])
            master.send_phase1(z, None, k=0, t=lay.t_cap)
            kind, z2, u2, k, t, trace, widths = worker.recv()
            assert kind == "phase1" and k == 0 and t == lay.t_cap
            assert trace is False
            assert widths is None
            np.testing.assert_array_equal(z2, z)
            assert u2 is None

            sent = self.fill_phase1_reply(worker, lay, k=0)
            msg = master.conn.recv()
            send_s, send_w, best_s, best_w, partial, heal, _ = \
                master.decode_phase1(msg, lay.t_cap)
            np.testing.assert_array_equal(send_s, sent[0])
            np.testing.assert_array_equal(send_w, sent[1])
            np.testing.assert_array_equal(best_s, sent[2])
            np.testing.assert_array_equal(best_w, sent[3])
            np.testing.assert_array_equal(partial, sent[4])
            assert heal == {"sanitized": 2}
        finally:
            master.close()

    def test_oversize_and_non_f64_measurements_go_inline(self):
        master, worker, lay = self.make_pair(meas_cap=2)
        try:
            big = np.arange(5, dtype=np.float64)   # > meas_cap
            f32 = np.array([1.0], dtype=np.float32)  # non-f64 keeps exact bits inline
            fell_back = master.send_phase1(big, f32, k=0, t=1)
            assert fell_back == 2 and master.fallbacks == 2
            _, z2, u2, _, _, _, _ = worker.recv()
            np.testing.assert_array_equal(z2, big)
            assert u2.dtype == np.float32
            np.testing.assert_array_equal(u2, f32)
        finally:
            master.close()

    def test_phase2_through_slab_and_width_zero(self):
        master, worker, lay = self.make_pair()
        try:
            width = lay.recv_cap - 2
            states = np.ones((lay.n_block, width, lay.state_dim), dtype=lay.dtype)
            logw = np.full((lay.n_block, width), -2.0)
            master.send_phase2(0, states, logw)
            kind, s2, w2 = worker.recv()
            assert kind == "phase2"
            np.testing.assert_array_equal(s2, states)
            np.testing.assert_array_equal(w2, logw)

            master.send_phase2(1, None, None)
            assert worker.recv() == ("phase2", None, None)
        finally:
            master.close()

    def test_phase2_oversize_falls_back_inline(self):
        master, worker, lay = self.make_pair(recv_cap=2)
        try:
            # A cut-edge pack wider than the slab's recv fields (healed
            # topology growth): 3 wire slots x t=2 > n_block x recv_cap = 4.
            t = 2
            states = np.ones((3, t, lay.state_dim), dtype=lay.dtype)
            logw = np.zeros((3, t))
            assert master.send_phase2c(0, t, states, logw)
            assert master.fallbacks == 1
            kind, t2, s2, w2 = worker.recv()
            assert kind == "phase2c" and t2 == t
            np.testing.assert_array_equal(s2, states)
            np.testing.assert_array_equal(w2, logw)
        finally:
            master.close()

    def test_phase2_buffers_are_slab_views(self):
        master, worker, lay = self.make_pair()
        try:
            # A cut-edge pack fills the front of the slab's recv fields and
            # reaches the worker as views of that memory, not a copy.
            t = 4
            states = np.arange(3 * t * lay.state_dim, dtype=lay.dtype).reshape(
                3, t, lay.state_dim)
            logw = -np.arange(3 * t, dtype=np.float64).reshape(3, t)
            assert not master.send_phase2c(1, t, states, logw)
            assert master.fallbacks == 0
            kind, t2, s2, w2 = worker.recv()
            assert kind == "phase2c" and t2 == t
            np.testing.assert_array_equal(s2, states)
            np.testing.assert_array_equal(w2, logw)
            slab = master._views[1]["recv_states"]
            assert np.shares_memory(s2, slab)
            slab.reshape(-1)[0] = 99.0
            assert s2[0, 0, 0] == 99.0  # same memory, no copy
        finally:
            master.close()

    def test_stale_ack_detected(self):
        master, worker, lay = self.make_pair()
        try:
            master.send_phase1(None, None, k=0, t=1)
            with pytest.raises(RuntimeError, match="stale slab ack"):
                master.decode_phase1(("p1", 0, 999, {}), 1)
            with pytest.raises(RuntimeError, match="expected p1 ack"):
                master.decode_phase1(("bogus",), 1)
        finally:
            master.close()


class TestShmReclaim:
    def test_reclaim_is_idempotent_and_unlinks(self):
        master = ShmMasterChannel(CTX, small_layout())
        name = master._seg.name
        assert master.n_segments == 1
        assert master.reclaim() == 1
        assert master.n_segments == 0
        assert master.reclaim() == 0
        assert master.close() == 0
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_reclaims_once(self):
        master = ShmMasterChannel(CTX, small_layout())
        assert master.close() == 1
        assert master.close() == 0

    def test_pipe_channel_reclaims_nothing(self):
        transport = PipeTransport()
        m, w = transport.channel_pair(CTX, small_layout())
        assert m.n_segments == 0
        assert m.close() == 0
        w.close()
