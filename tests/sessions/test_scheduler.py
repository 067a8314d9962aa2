"""Admission, bounded ingress, batch-on-size stepping and stats readout."""

from collections import deque

import numpy as np
import pytest

from repro.core import DistributedFilterConfig
from repro.sessions import QueueFullError, SessionManager
from repro.telemetry import Tracer
from tests.sessions.helpers import measurements, scalar_model


def cfg(seed=0, **kw):
    kw.setdefault("n_particles", 8)
    kw.setdefault("n_filters", 1)
    kw.setdefault("n_exchange", 0)
    return DistributedFilterConfig(seed=seed, **kw)


def manager_with(n=2, **kw):
    mgr = SessionManager(**kw)
    model = scalar_model()
    for i in range(n):
        mgr.attach(f"s{i}", model, cfg(seed=i))
    return mgr


class TestAdmission:
    def test_duplicate_attach_rejected(self):
        mgr = manager_with(1)
        with pytest.raises(ValueError, match="already attached"):
            mgr.attach("s0", scalar_model(), cfg())

    def test_unknown_session_rejected(self):
        mgr = manager_with(1)
        with pytest.raises(KeyError):
            mgr.submit("ghost", np.zeros(1))
        with pytest.raises(KeyError):
            mgr.detach("ghost")

    def test_readmit_still_in_cohort_rejected(self):
        mgr = manager_with(1)
        with pytest.raises(ValueError, match="still in a cohort"):
            SessionManager().readmit(mgr.sessions["s0"])

    def test_manager_tracer_sees_out_of_envelope_sessions(self):
        tracer = Tracer(enabled=True)
        mgr = SessionManager(tracer=tracer)
        sess = mgr.attach("rough", scalar_model(), cfg(roughening=0.1))
        assert sess.solo is not None and sess.solo.tracer is tracer
        for z in measurements(1, 2)[0]:
            mgr.submit("rough", z)
            mgr.tick()
        steps = [s for s in tracer.spans if s.kind == "step"]
        assert [s.name for s in steps] == ["step 0", "step 1"]

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="on_full"):
            SessionManager(on_full="explode")
        with pytest.raises(ValueError, match="max_queue"):
            SessionManager(max_queue=0)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one_rejected(self, batch_size):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            SessionManager(batch_size=batch_size)

    def test_no_batch_size_steps_on_tick(self):
        mgr = manager_with(3, batch_size=None)
        mgr.submit("s0", measurements(1, 1)[0, 0])
        assert mgr.counters["cohort_steps"] == 0
        assert [r.session_id for r in mgr.tick()] == ["s0"]


class TestBoundedIngress:
    def test_full_queue_raises_by_default(self):
        mgr = manager_with(1, max_queue=2)
        mgr.submit("s0", np.zeros(1))
        mgr.submit("s0", np.zeros(1))
        with pytest.raises(QueueFullError, match="queue is full"):
            mgr.submit("s0", np.zeros(1))

    def test_drop_oldest_evicts_and_counts(self):
        mgr = manager_with(1, max_queue=2, on_full="drop_oldest")
        for v in (1.0, 2.0, 3.0):
            mgr.submit("s0", np.array([v]))
        assert mgr.counters["dropped"] == 1
        queued = [m[0][0] for m in mgr.sessions["s0"].queue]
        assert queued == [2.0, 3.0]

    def test_detach_drops_queued_observations(self):
        mgr = manager_with(2)
        mgr.submit("s0", np.zeros(1))
        sess = mgr.detach("s0")
        assert not sess.queue
        assert mgr.queued == 0


class TestStepping:
    def test_tick_steps_only_ready_sessions(self):
        mgr = manager_with(3)
        meas = measurements(3, 1)
        mgr.submit("s0", meas[0, 0])
        mgr.submit("s2", meas[2, 0])
        results = mgr.tick()
        assert sorted(r.session_id for r in results) == ["s0", "s2"]
        assert mgr.sessions["s1"].k == 0
        assert mgr.counters["cohort_steps"] == 1
        assert mgr.counters["session_steps"] == 2

    def test_batch_on_size_steps_eagerly(self):
        mgr = manager_with(3, batch_size=2)
        meas = measurements(3, 1)
        mgr.submit("s0", meas[0, 0])
        assert not mgr._results  # below threshold: nothing stepped yet
        mgr.submit("s1", meas[1, 0])
        results = mgr.drain()
        assert sorted(r.session_id for r in results) == ["s0", "s1"]
        assert mgr.queued == 0

    def test_batch_on_size_submit_work_does_not_grow_with_the_cohort(self):
        # Every session's queue counts its length checks; a submit below
        # the batch threshold must touch only its own session's queue.
        class CountingQueue(deque):
            checks = 0

            def __len__(self):
                CountingQueue.checks += 1
                return super().__len__()

        def checks_per_submit(n):
            mgr = manager_with(n, batch_size=n)
            for sess in mgr.sessions.values():
                sess.queue = CountingQueue()
            CountingQueue.checks = 0
            for i in range(8):
                mgr.submit(f"s{i}", np.zeros(1))
            checks = CountingQueue.checks
            assert not mgr._results and mgr.queued == 8
            return checks / 8

        assert checks_per_submit(16) == checks_per_submit(128)

    def test_batch_on_size_counts_through_drop_and_detach(self):
        mgr = manager_with(3, batch_size=3, max_queue=1, on_full="drop_oldest")
        cohort = next(iter(mgr.cohorts.values()))
        mgr.submit("s0", np.zeros(1))
        mgr.submit("s0", np.ones(1))  # evicts the first: still one session
        mgr.submit("s1", np.zeros(1))
        assert cohort.queued == 2 and not mgr._results
        mgr.detach("s2")  # now two of two sessions have work
        mgr.submit("s1", np.ones(1))
        assert sorted(r.session_id for r in mgr.drain()) == ["s0", "s1"]
        assert cohort.queued == 0 and mgr.queued == 0

    def test_scalar_and_vector_payloads_share_a_tick(self):
        mgr, twin = manager_with(2), manager_with(2)
        mgr.submit("s0", 0.5)
        mgr.submit("s1", np.array([0.25]))
        twin.submit("s0", np.array([0.5]))
        twin.submit("s1", np.array([0.25]))
        for got, want in zip(mgr.tick(), twin.tick()):
            np.testing.assert_array_equal(got.estimate, want.estimate)

    def test_cohort_step_answers_in_the_callers_order(self):
        cohort, twin = (next(iter(manager_with(3).cohorts.values()))
                        for _ in range(2))
        meas = measurements(3, 1)[:, 0]
        est = cohort.step(cohort.sessions[::-1], meas[::-1])
        want = twin.step(twin.sessions, meas)
        np.testing.assert_array_equal(est, want[::-1])
        assert [s.k for s in cohort.sessions] == [1, 1, 1]
        for sess, row in zip(cohort.sessions, want):
            np.testing.assert_array_equal(sess.last_estimate, row)

    def test_pump_drains_everything(self):
        mgr = manager_with(2)
        meas = measurements(2, 3)
        for k in range(3):
            for i in range(2):
                mgr.submit(f"s{i}", meas[i, k])
        results = mgr.pump()
        assert len(results) == 6
        assert mgr.queued == 0
        ks = [r.k for r in results if r.session_id == "s0"]
        assert ks == [1, 2, 3]

    def test_results_carry_latency(self):
        mgr = manager_with(1)
        mgr.submit("s0", np.zeros(1))
        (res,) = mgr.tick()
        assert res.latency_s >= 0.0
        assert res.estimate.shape == (1,)


class TestStats:
    def test_stats_shape_and_counts(self):
        mgr = manager_with(2)
        meas = measurements(2, 2)
        for k in range(2):
            for i in range(2):
                mgr.submit(f"s{i}", meas[i, k])
            mgr.tick()
        stats = mgr.stats()
        assert stats["sessions"] == 2
        assert stats["cohorts"] == 1
        assert stats["solo_sessions"] == 0
        assert stats["queued"] == 0
        assert stats["counters"]["session_steps"] == 4
        lat = stats["latency"]
        assert lat["count"] == 4
        assert 0.0 <= lat["p50_s"] <= lat["p99_s"] <= lat["max_s"]
        assert set(stats["scratch"]) == {"hits", "misses", "evictions",
                                         "buffers", "bytes_held"}

    def test_reset_latency_restarts_window(self):
        mgr = manager_with(1)
        mgr.submit("s0", np.zeros(1))
        mgr.tick()
        assert mgr.stats()["latency"]["count"] == 1
        mgr.reset_latency()
        assert mgr.stats()["latency"]["count"] == 0

    def test_scratch_cap_is_plumbed_to_cohorts(self):
        mgr = manager_with(2, scratch_cap_bytes=1 << 20)
        cohort = next(iter(mgr.cohorts.values()))
        assert cohort._state.scratch_cap_bytes == 1 << 20
