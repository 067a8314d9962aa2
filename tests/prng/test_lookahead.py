"""The normal-draw lookahead: a speculation is adopted only on an exact state
match, so an armed filter is bit-identical to an unarmed one."""

import multiprocessing as mp
import os
import threading
import time

import numpy as np
import pytest

from repro.bench.harness import arm_truth
from repro.core import DistributedFilterConfig, DistributedParticleFilter
from repro.models import LinearGaussianModel, RobotArmModel
from repro.prng.streams import LOOKAHEAD_MIN_DRAWS, NumpyRNG, stripe_generators
from repro.sessions import SessionManager
from repro.telemetry import Tracer

STEPS = 50
MODEL = RobotArmModel()
AR1 = LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])
TRUTH = arm_truth(STEPS + 10, seed=3, model=MODEL)


def arm_config(**kw):
    # 80 * 64 * 9 = 46,080 values per transition draw: past the threshold.
    return DistributedFilterConfig(n_particles=64, n_filters=80, topology="ring",
                                   n_exchange=1, seed=5, **kw)


def build(monkeypatch, armed, model=MODEL, config=None, **kw):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if armed else {0},
                        raising=False)
    pf = DistributedParticleFilter(model, config or arm_config(), **kw)
    monkeypatch.undo()
    return pf


def lookahead(pf):
    return pf.rng.inner.lookahead


def step(pf, k):
    return np.array(pf.step(TRUTH.measurements[k], TRUTH.controls[k]))


def helper_threads():
    return [t for t in threading.enumerate() if t.name == "repro-rng-lookahead"]


@pytest.mark.parametrize("dtype_policy", ["mixed", "float64"])
def test_armed_filter_is_bit_identical(monkeypatch, dtype_policy):
    cfg = arm_config(dtype_policy=dtype_policy)
    armed, plain = build(monkeypatch, True, config=cfg), build(monkeypatch, False, config=cfg)
    assert lookahead(armed) is not None and lookahead(plain) is None
    for k in range(STEPS):
        np.testing.assert_array_equal(step(armed, k), step(plain, k))
        assert armed.rng.state_dict() == plain.rng.state_dict()
    # The first known gap arms the first speculation.
    assert lookahead(armed).hits >= STEPS - 2
    assert lookahead(armed).misses == 0


def test_checkpoint_with_a_speculation_in_flight_resumes_bit_identically(monkeypatch, tmp_path):
    pf = build(monkeypatch, True)
    for k in range(6):
        step(pf, k)
    assert lookahead(pf)._pending is not None  # drawn ahead for step 6
    path = str(tmp_path / "ckpt")
    pf.save_checkpoint(path)
    resumed = build(monkeypatch, True)
    resumed.load_checkpoint(path)
    for k in range(6, 20):
        np.testing.assert_array_equal(step(resumed, k), step(pf, k))
    assert resumed.rng.state_dict() == pf.rng.state_dict()


@pytest.mark.parametrize("force", ["uniform", "load_state_dict"])
def test_forced_miss_gives_the_unarmed_values(monkeypatch, force):
    armed, plain = build(monkeypatch, True), build(monkeypatch, False)
    for k in range(6):
        step(armed, k), step(plain, k)
    hits = lookahead(armed).hits
    for pf in (armed, plain):
        if force == "uniform":
            pf.rng.uniform((3,))
        else:
            pf.rng.load_state_dict(pf.rng.state_dict())
    for k in range(6, 16):
        np.testing.assert_array_equal(step(armed, k), step(plain, k))
    assert armed.rng.state_dict() == plain.rng.state_dict()
    assert lookahead(armed).misses == 1
    assert lookahead(armed).hits > hits


def test_direct_generator_access_stops_speculation():
    rng, plain = NumpyRNG(7), NumpyRNG(7)
    la = rng.arm_lookahead()
    shape = (80, 512)  # 40 K values: the smallest draw run ahead
    assert shape[0] * shape[1] == LOOKAHEAD_MIN_DRAWS

    def rounds(n):
        for _ in range(n):
            np.testing.assert_array_equal(rng.normal(shape, np.float32),
                                          plain.normal(shape, np.float32))
            rng.uniform((5,)), plain.uniform((5,))

    rounds(3)
    assert la._pending is not None  # after the first known gap
    rng._gen.random(2), plain._gen.random(2)  # draws the lookahead cannot count
    rounds(4)
    assert (la.hits, la.misses) == (3, 1)
    assert rng.state_dict() == plain.state_dict()


def test_traced_steps_count_hits_and_misses(monkeypatch):
    tracer = Tracer(enabled=False)
    pf = build(monkeypatch, True, tracer=tracer)
    for k in range(8):
        step(pf, k)
    assert "prng.lookahead_hits" not in tracer.counters
    tracer.enabled = True
    for k in range(8, 18):
        step(pf, k)
    assert tracer.counters["prng.lookahead_hits"] == 10
    assert "prng.lookahead_misses" not in tracer.counters


def test_no_helper_thread_outlives_its_draw(monkeypatch):
    pf = build(monkeypatch, True)
    for k in range(6):
        step(pf, k)
    deadline = time.monotonic() + 30.0
    while helper_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not helper_threads()


def never_speculates(pf, measurements):
    la = lookahead(pf)
    assert la is not None
    for z in measurements:
        pf.step(z)
        assert la._pending is None
    assert (la.hits, la.misses) == (0, 0)


class TestArmingRule:
    def test_fused_small_shape_never_speculates(self, monkeypatch):
        cfg = DistributedFilterConfig(n_particles=16, n_filters=16, topology="ring",
                                      n_exchange=1, execution="compiled")
        never_speculates(build(monkeypatch, True, model=AR1, config=cfg),
                         [np.array([0.1 * k]) for k in range(6)])

    def test_draws_below_the_threshold_run_serially(self, monkeypatch):
        small = DistributedFilterConfig(n_particles=64, n_filters=64, seed=5)
        assert 64 * 64 * 9 < LOOKAHEAD_MIN_DRAWS  # 36,864 values
        never_speculates(build(monkeypatch, True, config=small), TRUTH.measurements[:6])

    def test_one_cpu_affinity_is_not_armed(self, monkeypatch):
        assert lookahead(build(monkeypatch, False)) is None

    def test_other_generators_are_not_armed(self, monkeypatch):
        pf = build(monkeypatch, True, config=arm_config(rng="philox"))
        assert getattr(pf.rng.inner, "lookahead", None) is None

    def test_cohort_striped_stream_is_not_armed(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        # 128 * 256 * 1 values per draw: past the threshold.
        cfg = dict(n_particles=128, n_filters=256, topology="ring", n_exchange=1)
        mgr = SessionManager()
        for i in range(2):
            mgr.attach(f"s{i}", AR1, DistributedFilterConfig(seed=i, **cfg))
        for k in range(3):
            for i in range(2):
                mgr.submit(f"s{i}", np.array([0.1 * k]))
            mgr.tick()
        cohort = next(iter(mgr.cohorts.values()))
        assert len(cohort) == 2
        assert all(s.rng.lookahead is None for s in cohort.sessions)
        gens = [s.numpy_gen for s in cohort.sessions]
        assert stripe_generators(gens, 256).lookahead is None

    def test_scheduler_solo_session_is_not_armed(self, monkeypatch):
        # A manager may hold many out-of-envelope sessions; none keeps a
        # draw in flight.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        mgr = SessionManager()
        sess = mgr.attach("rough", MODEL, arm_config(roughening=0.1))
        assert sess.solo is not None and sess.envelope_reason
        assert sess.solo.rng.inner.lookahead is None

    def test_worker_stream_is_not_armed(self, monkeypatch):
        from repro.backends import MultiprocessDistributedParticleFilter

        def refuse(self, *a, **kw):
            raise AssertionError("a worker armed a lookahead")

        # Workers fork from this process, so they inherit the refusal.
        monkeypatch.setattr(NumpyRNG, "arm_lookahead", refuse)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with MultiprocessDistributedParticleFilter(MODEL, arm_config(), n_workers=1,
                                                   transport="pipe") as pf:
            for k in range(3):
                assert np.isfinite(step(pf, k)).all()


def _child_steps_its_own_filter(parent_pf, queue):
    # What the fork left in this child: no speculation of the parent's
    # filter, and no thread but this one.
    inherited = (lookahead(parent_pf)._pending, [t.name for t in threading.enumerate()
                                                 if t is not threading.current_thread()])
    pf = DistributedParticleFilter(MODEL, arm_config())
    for k in range(8):
        step(pf, k)
    la = pf.rng.inner.lookahead
    queue.put((inherited, la is not None, 0 if la is None else la.hits))


def test_forked_child_steps_its_own_lookahead_filter(monkeypatch):
    pf = build(monkeypatch, True)
    for k in range(6):
        step(pf, k)
    spec = lookahead(pf)._pending
    assert spec is not None
    ctx = mp.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_child_steps_its_own_filter, args=(pf, queue))
    child.start()
    # The at-fork hook joined the helper and dropped its speculation
    # before the fork.
    assert not spec.thread.is_alive()
    assert lookahead(pf)._pending is None and lookahead(pf).misses == 1
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung on a lookahead draw")
    assert child.exitcode == 0
    inherited, armed, hits = queue.get(timeout=5)
    assert inherited == (None, [])
    if len(os.sched_getaffinity(0)) >= 2:
        assert armed and hits > 0
    step(pf, 6)  # the parent keeps stepping too
