"""Tests for the camera field-of-view / censored-measurement extension."""

import numpy as np
import pytest

from repro.core import DistributedFilterConfig, DistributedParticleFilter, run_filter
from repro.models import RobotArmModel, RobotArmParams, lemniscate, simulate_arm_tracking
from repro.prng import make_rng


def fov_model(fov=0.6):
    return RobotArmModel(RobotArmParams(camera_fov=fov))


def test_fov_validation():
    with pytest.raises(ValueError):
        RobotArmParams(camera_fov=0.0)
    with pytest.raises(ValueError):
        RobotArmParams(miss_probability=0.0)


def test_in_view_object_measured_normally():
    m = fov_model(fov=10.0)  # everything in view
    z = m.observe(m.initial_mean(), 0, make_rng("numpy", seed=0))
    assert np.isfinite(z).all()


def test_out_of_view_object_censored():
    m = fov_model(fov=0.1)
    state = m.initial_mean()
    state[5:7] = [-3.0, 4.0]  # far off the optical axis
    z = m.observe(state, 0, make_rng("numpy", seed=1))
    assert np.isnan(z[-2:]).all()  # camera censored
    assert np.isfinite(z[:5]).all()  # joint sensors still report


def test_batched_observe_censors_row_by_row():
    # Row 0 yaws the arm towards the object on +y and sees it on the optical
    # axis; rows 1 and 2 look along +x, with the object 3 m off to the side.
    m = fov_model(fov=0.5)
    states = np.tile(m.initial_mean(), (3, 1))
    states[:, 5:7] = [0.0, 3.0]
    states[0, 0] = np.pi / 2
    z = m.observe(states, 0, make_rng("numpy", seed=6))
    assert np.isfinite(z[0]).all()
    assert np.isnan(z[1:, -2:]).all() and np.isfinite(z[1:, :-2]).all()
    for row, state in zip(z, states):
        single = m.observe(state, 0, make_rng("numpy", seed=7))
        np.testing.assert_array_equal(np.isnan(single), np.isnan(row))


def test_censored_likelihood_prefers_consistent_particles():
    m = fov_model(fov=0.3)
    truth = m.initial_mean()
    truth[5:7] = [-2.0, 2.0]  # out of view
    z = m.observe(truth, 0, make_rng("numpy", seed=2))
    assert np.isnan(z[-2:]).all()
    # Particle A also predicts out-of-view; particle B predicts in view.
    a = truth.copy()
    b = truth.copy()
    b[5:7] = [0.6, 0.0]  # roughly on the optical axis -> in view
    ll = m.log_likelihood(np.stack([a, b]), z, 0)
    assert ll[0] > ll[1] + 3.0  # the miss-probability penalty bites


def test_unlimited_fov_never_censors():
    m = RobotArmModel()  # paper default: no FOV
    state = m.initial_mean()
    state[5:7] = [50.0, 50.0]
    z = m.observe(state, 0, make_rng("numpy", seed=3))
    assert np.isfinite(z).all()


def test_filter_survives_occlusion_and_reacquires():
    # A lemniscate bigger than the FOV: the object repeatedly leaves view.
    m = fov_model(fov=0.8)
    pos, vel = lemniscate(120, h_s=m.params.h_s, scale=1.4, center=(0.6, 0.0))
    truth = simulate_arm_tracking(m, pos, vel, make_rng("numpy", seed=4))
    censored_steps = int(np.isnan(truth.measurements[:, -1]).sum())
    assert censored_steps > 10  # the occlusion actually happens
    pf = DistributedParticleFilter(
        m, DistributedFilterConfig(n_particles=64, n_filters=32, estimator="weighted_mean", seed=5)
    )
    run = run_filter(pf, m, truth)
    assert np.isfinite(run.errors).all()  # no NaNs leak into the filter
    # During occlusion the error may grow, but detection steps re-acquire:
    # average error over detected steps stays bounded.
    detected = ~np.isnan(truth.measurements[:, -1])
    assert run.errors[detected][20:].mean() < 0.6


def test_occlusion_degrades_but_not_destroys_accuracy():
    m_free = RobotArmModel()
    m_fov = fov_model(fov=0.8)
    pos, vel = lemniscate(100, h_s=0.1, scale=1.4, center=(0.6, 0.0))
    errs = {}
    for label, model in (("free", m_free), ("fov", m_fov)):
        acc = []
        for r in range(3):
            truth = simulate_arm_tracking(model, pos, vel, make_rng("numpy", seed=100 + r))
            pf = DistributedParticleFilter(
                model, DistributedFilterConfig(n_particles=64, n_filters=32, estimator="weighted_mean", seed=r)
            )
            acc.append(run_filter(pf, model, truth).mean_error(warmup=20))
        errs[label] = float(np.mean(acc))
    assert errs["fov"] >= errs["free"] * 0.8  # censoring cannot help
    assert errs["fov"] < 1.2  # but tracking survives
