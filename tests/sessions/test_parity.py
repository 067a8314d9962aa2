"""The session layer's core contract: cohort-stepped == solo, bit for bit."""

import numpy as np
import pytest

from repro.core import DistributedFilterConfig, DistributedParticleFilter
from repro.models import LinearGaussianModel, UNGMModel
from repro.sessions import SessionManager, cohort_envelope, cohort_key
from tests.sessions.helpers import (
    KILL_BLOCK,
    KILL_ROW,
    PoisonModel,
    assert_bit_identical,
    cohort_run,
    control_model,
    measurements,
    scalar_model,
    solo_run,
)

#: every config is run as S=3 sessions (seeds differ) through one cohort and
#: compared bitwise, session by session, to the solo filter.
CONFIGS = {
    "single_filter": dict(n_particles=8, n_filters=1, n_exchange=0),
    "ring_exchange": dict(n_particles=8, n_filters=4, topology="ring", n_exchange=2),
    "fused_compiled": dict(n_particles=8, n_filters=4, topology="ring",
                           n_exchange=1, execution="compiled"),
    "ess_policy": dict(n_particles=8, n_filters=4, topology="ring", n_exchange=1,
                       resample_policy="ess", resample_arg=0.5),
    "adaptive_ess_alloc": dict(n_particles=8, n_filters=4, topology="ring",
                               n_exchange=1, allocation="ess"),
    "weighted_mean": dict(n_particles=8, n_filters=4, topology="ring",
                          n_exchange=1, estimator="weighted_mean"),
    "stratified": dict(n_particles=8, n_filters=4, topology="ring", n_exchange=1,
                       resampler="stratified"),
    "float32_policy": dict(n_particles=8, n_filters=4, topology="ring",
                           n_exchange=1, dtype_policy="float32"),
    "philox": dict(n_particles=8, n_filters=4, topology="ring", n_exchange=1,
                   rng="philox"),
}

#: run on :class:`PoisonModel`: NaN weights and non-finite states every
#: round, a dead row in every session at step 2 and session 1's whole block
#: dead at step 4, so healing's sanitize pass, neighbour donors and block
#: restart all run, in the reference stages and in the fused round's
#: fallback.
UNHEALTHY_CONFIGS = {
    "unhealthy_reference": dict(n_particles=8, n_filters=4, topology="ring",
                                n_exchange=2),
    "unhealthy_compiled": dict(n_particles=8, n_filters=4, topology="ring",
                               n_exchange=1, execution="compiled"),
}


@pytest.mark.parametrize("name", sorted(CONFIGS) + sorted(UNHEALTHY_CONFIGS))
def test_cohort_matches_solo(name):
    unhealthy = name in UNHEALTHY_CONFIGS
    kw = UNHEALTHY_CONFIGS[name] if unhealthy else CONFIGS[name]
    model = PoisonModel(kw["n_filters"]) if unhealthy else scalar_model()
    cfgs = [DistributedFilterConfig(seed=10 + i, **kw) for i in range(3)]
    meas = measurements(3, 6)
    if unhealthy:
        meas[:, 2] = KILL_ROW
        meas[1, 4] = KILL_BLOCK
    got = cohort_run(model, cfgs, meas)
    for i, cfg in enumerate(cfgs):
        want = solo_run(model, cfg, meas[i])
        assert_bit_identical(got[i], want, label=f"{name}/s{i}")
        if unhealthy:
            assert got[i]["heal_counters"] == want["heal_counters"]
            assert min(want["heal_counters"].values()) > 0, want["heal_counters"]


@pytest.mark.parametrize("name", ["ring_exchange", "fused_compiled"])
def test_cohort_matches_solo_with_controls(name):
    model = control_model()
    cfgs = [DistributedFilterConfig(seed=10 + i, **CONFIGS[name]) for i in range(3)]
    meas = measurements(3, 6)
    controls = measurements(3, 6, meas_dim=2, seed=78)
    got = cohort_run(model, cfgs, meas, controls=controls)
    for i, cfg in enumerate(cfgs):
        assert_bit_identical(got[i], solo_run(model, cfg, meas[i], controls[i]),
                             label=f"{name}/controls/s{i}")


@pytest.mark.parametrize("name", ["ring_exchange", "fused_compiled"])
def test_mixed_control_presence_steps_every_session(name):
    # At step k only session k % 3 submits a control, so every tick mixes
    # sessions with and without one; none may lose its observation.
    model = control_model()
    cfgs = [DistributedFilterConfig(seed=10 + i, **CONFIGS[name]) for i in range(3)]
    meas = measurements(3, 6)
    u = measurements(3, 6, meas_dim=2, seed=78)
    controls = [[u[i, k] if k % 3 == i else None for k in range(6)] for i in range(3)]
    mgr = SessionManager()
    got = cohort_run(model, cfgs, meas, manager=mgr, controls=controls)
    assert mgr.queued == 0
    for i, cfg in enumerate(cfgs):
        assert mgr.sessions[f"s{i}"].k == 6
        assert_bit_identical(got[i], solo_run(model, cfg, meas[i], controls[i]),
                             label=f"{name}/mixed/s{i}")


@pytest.mark.parametrize("allocation, captures", [("fixed", False), ("ess", True)])
def test_cohort_captures_allocation_metrics_only_for_a_reader(allocation, captures, monkeypatch):
    # A cohort round has no allocation telemetry hook, so only an adaptive
    # policy's allocate stage reads the metrics the resample stage captures.
    from repro.engine import vector_stages

    calls = []
    capture = vector_stages._capture_alloc_metrics
    monkeypatch.setattr(vector_stages, "_capture_alloc_metrics",
                        lambda *a: calls.append(1) or capture(*a))
    cfg = dict(n_particles=8, n_filters=4, topology="ring", n_exchange=1,
               allocation=allocation)
    model = scalar_model()
    cohort_run(model, [DistributedFilterConfig(seed=i, **cfg) for i in range(2)],
               measurements(2, 3))
    assert bool(calls) is captures


def test_sessions_actually_share_one_cohort():
    model = scalar_model()
    cfgs = [DistributedFilterConfig(n_particles=8, n_filters=2, n_exchange=0,
                                    seed=i) for i in range(4)]
    mgr = SessionManager()
    for i, cfg in enumerate(cfgs):
        mgr.attach(f"s{i}", model, cfg)
    assert len(mgr.cohorts) == 1
    assert len(next(iter(mgr.cohorts.values()))) == 4


def test_equal_value_models_share_a_cohort():
    # cohort_key uses the model's value signature, so two instances built
    # from equal matrices batch together.
    m1, m2 = scalar_model(), scalar_model()
    cfg = DistributedFilterConfig(n_particles=8, n_filters=1, n_exchange=0)
    assert cohort_key(m1, cfg.with_(seed=1)) == cohort_key(m2, cfg.with_(seed=2))


def test_different_shapes_form_different_cohorts():
    model = scalar_model()
    mgr = SessionManager()
    mgr.attach("a", model, DistributedFilterConfig(n_particles=8, n_filters=1,
                                                  n_exchange=0, seed=1))
    mgr.attach("b", model, DistributedFilterConfig(n_particles=16, n_filters=1,
                                                   n_exchange=0, seed=1))
    assert len(mgr.cohorts) == 2


class TestSoloFallback:
    def test_out_of_envelope_model_is_served_solo(self):
        model = UNGMModel()
        cfg = DistributedFilterConfig(n_particles=8, n_filters=2, n_exchange=0,
                                      seed=3)
        ok, reason = cohort_envelope(model, cfg)
        assert not ok and reason
        mgr = SessionManager()
        sess = mgr.attach("u", model, cfg)
        assert sess.solo is not None
        assert sess.envelope_reason == reason
        assert not mgr.cohorts

    def test_solo_fallback_matches_direct_filter(self):
        model = UNGMModel()
        cfg = DistributedFilterConfig(n_particles=8, n_filters=2, n_exchange=0,
                                      seed=3)
        meas = measurements(1, 5)
        mgr = SessionManager()
        mgr.attach("u", model, cfg)
        ests = []
        for k in range(5):
            mgr.submit("u", meas[0, k])
            (res,) = mgr.tick()
            ests.append(res.estimate)
        pf = DistributedParticleFilter(model, cfg)
        pf.initialize()
        want = np.array([np.asarray(pf.step(z), dtype=np.float64)
                         for z in meas[0]])
        np.testing.assert_array_equal(np.array(ests), want)
        assert mgr.counters["solo_steps"] == 5
