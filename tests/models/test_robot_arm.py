"""Tests for the robotic-arm tracking model."""

import numpy as np
import pytest

from repro.bench.harness import arm_truth
from repro.core import DistributedFilterConfig, DistributedParticleFilter
from repro.models import RobotArmModel, RobotArmParams, lemniscate, simulate_arm_tracking
from repro.prng import make_rng


def test_dimensions_follow_table2():
    m = RobotArmModel()
    assert m.n_joints == 5
    assert m.state_dim == 9  # joints + 4, Table II
    assert m.measurement_dim == 7
    assert m.control_dim == 5


@pytest.mark.parametrize("K", [1, 2, 8, 44])
def test_dimension_scaling(K):
    m = RobotArmModel(RobotArmParams(n_joints=K))
    assert m.state_dim == K + 4
    assert m.measurement_dim == K + 2


def test_param_validation():
    with pytest.raises(ValueError):
        RobotArmParams(n_joints=0)
    with pytest.raises(ValueError):
        RobotArmParams(sigma_camera=-1.0)


def test_initial_particles_shape_and_spread():
    m = RobotArmModel()
    pts = m.initial_particles(500, make_rng("numpy", seed=0))
    assert pts.shape == (500, 9)
    center = pts.mean(axis=0)
    np.testing.assert_allclose(center, m.initial_mean(), atol=0.1)
    assert pts.std(axis=0).min() > 0.05


def test_transition_moves_mean_by_control():
    m = RobotArmModel()
    x = np.tile(m.initial_mean(), (20_000, 1))
    u = np.full(5, 1.0)
    y = m.transition(x, u, 0, make_rng("numpy", seed=1))
    # Joint means advance by h_s * u = 0.1.
    np.testing.assert_allclose(y[:, :5].mean(axis=0) - x[:, :5].mean(axis=0), 0.1, atol=0.01)


def test_transition_double_integrator_object():
    m = RobotArmModel()
    x = np.tile(m.initial_mean(), (20_000, 1))
    x[:, 7:9] = [0.5, -0.2]  # velocity
    y = m.transition(x, None, 0, make_rng("numpy", seed=2))
    np.testing.assert_allclose((y[:, 5:7] - x[:, 5:7]).mean(axis=0), [0.05, -0.02], atol=0.01)


def test_transition_preserves_batch_shape_and_dtype():
    m = RobotArmModel()
    x = np.zeros((4, 8, 9), dtype=np.float32)
    y = m.transition(x, m.control_at(0), 3, make_rng("numpy", seed=3))
    assert y.shape == (4, 8, 9) and y.dtype == np.float32


def _reference_transition(m, states, control, noise):
    """Float64 transition written out per state block."""
    p, K = m.params, m.n_joints
    x = np.asarray(states, dtype=np.float64)
    out = x.copy()
    out[..., :K] += p.h_s * control + p.sigma_theta * noise[..., :K]
    out[..., K : K + 2] += p.h_s * x[..., K + 2 : K + 4] + p.sigma_xy * noise[..., K : K + 2]
    out[..., K + 2 :] += p.sigma_v * noise[..., K + 2 :]
    return out


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
def test_transition_draws_once_and_matches_reference(dtype, tol):
    m = RobotArmModel()
    states = (m.initial_mean() + np.random.default_rng(0).normal(size=(3, 4, 9))).astype(dtype)
    u = m.control_at(5)
    rng, twin = make_rng("numpy", seed=8), make_rng("numpy", seed=8)
    y = m.transition(states, u, 5, rng)
    noise = twin.normal(states.shape, dtype=dtype)
    # Exactly one normal(states.shape) draw at the state dtype: both
    # generators are in step.
    assert rng.state_dict() == twin.state_dict()
    assert y.shape == states.shape and y.dtype == dtype
    np.testing.assert_allclose(y, _reference_transition(m, states, u, noise), rtol=0, atol=tol)


def _broadcast_transition(m, states, control, rng):
    """The transition as broadcast column updates at the state dtype, kept as
    an oracle for the column-wise form: it must agree to the last bit."""
    h, K = m.params.h_s, m.n_joints
    states = np.asarray(states)
    out = np.multiply(rng.normal(states.shape, dtype=states.dtype), m.process_sigma, dtype=states.dtype)
    out += states
    if control is not None:
        out[..., :K] += (h * np.asarray(control)).astype(states.dtype)
    out[..., K : K + 2] += h * states[..., K + 2 : K + 4]
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, control", [
    ((6, 4, 9), "joint"),         # the filter's (F, m, d) population
    ((6, 4, 9), None),
    ((6, 4, 9), "per-row"),       # a cohort's (F, 1, K) controls: broadcast path
    ((5, 9), "joint"),
    ((9,), "joint"),              # one ground-truth state
    ((6, 4, 9), "float32-joint"),
])
def test_transition_is_bitwise_the_broadcast_form(dtype, shape, control):
    m = RobotArmModel()
    gen = np.random.default_rng(2)
    states = (m.initial_mean() + gen.normal(size=shape)).astype(dtype)
    u = {None: None, "joint": m.control_at(5),
         "per-row": m.control_at(5) + gen.normal(size=(6, 1, 5)),
         "float32-joint": m.control_at(5).astype(np.float32)}[control]
    for _ in range(2):  # the second call reuses the cached sigma tile
        got = m.transition(states, u, 5, make_rng("numpy", seed=8))
        want = _broadcast_transition(m, states, u, make_rng("numpy", seed=8))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    if len(shape) > 1:  # a smaller population then reads a prefix of the tile
        small, u_small = states[:2], (u[:2] if control == "per-row" else u)
        got = m.transition(small, u_small, 5, make_rng("numpy", seed=9))
        want = _broadcast_transition(m, small, u_small, make_rng("numpy", seed=9))
        assert got.tobytes() == want.tobytes()


def test_transition_reads_strided_states():
    m = RobotArmModel()
    base = np.random.default_rng(3).normal(size=(4, 16, 9)).astype(np.float32)
    states = base[:, ::2]  # a non-contiguous view
    got = m.transition(states, m.control_at(1), 1, make_rng("numpy", seed=4))
    want = _broadcast_transition(m, states, m.control_at(1), make_rng("numpy", seed=4))
    assert got.tobytes() == want.tobytes()


def _reference_log_likelihood(m, states, z):
    """Float64 likelihood built from measurement_mean, as the model defines it."""
    p, K = m.params, m.n_joints
    z_hat = m.measurement_mean(np.asarray(states, dtype=np.float64))
    ll = -0.5 * np.sum((z_hat[..., :K] - z[:K]) ** 2, axis=-1) / p.sigma_theta_meas**2
    if np.isnan(z[K:]).any():
        off = np.linalg.norm(z_hat[..., K:], axis=-1) > p.camera_fov
        return ll + np.where(off, 0.0, np.log(p.miss_probability))
    return ll - 0.5 * np.sum((z_hat[..., K:] - z[K:]) ** 2, axis=-1) / p.sigma_camera**2


@pytest.mark.parametrize("censored", [False, True])
@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_log_likelihood_matches_measurement_mean_reference(censored, dtype, rtol):
    m = RobotArmModel(RobotArmParams(camera_fov=0.4 if censored else None))
    rng = np.random.default_rng(1)
    states = (m.initial_mean() + 0.3 * rng.normal(size=(16, 8, 9))).astype(dtype)
    z = m.measurement_mean(m.initial_mean() + 0.1)
    if censored:
        z[-2:] = np.nan
    ll = m.log_likelihood(states, z, 0)
    ref = _reference_log_likelihood(m, states, z)
    assert ll.shape == (16, 8) and ll.dtype == np.float64
    if censored:  # both outcomes of the view test occur
        assert len(np.unique(ref)) > 1
    np.testing.assert_allclose(ll, ref, rtol=rtol, atol=rtol)


def test_log_likelihood_peaks_at_truth():
    m = RobotArmModel()
    rng = make_rng("numpy", seed=4)
    truth = m.initial_mean() + 0.1
    z = m.measurement_mean(truth)  # noise-free measurement
    candidates = np.stack([truth, truth + 0.5, truth - 0.7])
    ll = m.log_likelihood(candidates, z, 0)
    assert ll.shape == (3,)
    assert ll[0] == max(ll)
    assert ll[0] == pytest.approx(0.0, abs=1e-9)


def test_observe_adds_noise_with_right_scale():
    m = RobotArmModel()
    rng = make_rng("numpy", seed=5)
    truth = m.initial_mean()
    zs = np.stack([m.observe(truth, 0, rng) for _ in range(4000)])
    resid = zs - m.measurement_mean(truth)
    np.testing.assert_allclose(resid.std(axis=0), 0.1, atol=0.02)


def test_control_is_deterministic_and_bounded():
    m = RobotArmModel()
    u1, u2 = m.control_at(7), m.control_at(7)
    np.testing.assert_array_equal(u1, u2)
    assert np.abs(u1).max() <= m.params.control_amplitude + 1e-12


def test_estimate_error_uses_object_position():
    m = RobotArmModel()
    a = m.initial_mean()
    b = a.copy()
    b[:5] += 10.0  # joint error must not count
    assert m.estimate_error(a, b) == 0.0
    b = a.copy()
    b[5] += 3.0
    b[6] += 4.0
    assert m.estimate_error(a, b) == pytest.approx(5.0)


def test_simulate_arm_tracking_pins_object_to_path():
    m = RobotArmModel()
    pos, vel = lemniscate(50, h_s=m.params.h_s)
    gt = simulate_arm_tracking(m, pos, vel, make_rng("numpy", seed=6))
    assert gt.n_steps == 50
    np.testing.assert_array_equal(gt.states[:, 5:7], pos)
    np.testing.assert_array_equal(gt.states[:, 7:9], vel)
    assert gt.measurements.shape == (50, 7)
    assert gt.controls.shape == (50, 5)
    # Joint sensors should track the true angles within a few sigma.
    assert np.abs(gt.measurements[:, :5] - gt.states[:, :5]).max() < 0.6


def test_simulate_arm_tracking_shape_validation():
    m = RobotArmModel()
    with pytest.raises(ValueError):
        simulate_arm_tracking(m, np.zeros((10, 2)), np.zeros((9, 2)), make_rng("numpy", seed=0))


def test_self_consistent_simulate():
    m = RobotArmModel()
    gt = m.simulate(30, make_rng("numpy", seed=7))
    assert gt.states.shape == (30, 9)
    assert np.isfinite(gt.states).all() and np.isfinite(gt.measurements).all()


def _arm_filter(dtype_policy, seed, **kw):
    base = dict(n_particles=16, n_filters=8, topology="ring", n_exchange=1,
                seed=seed, dtype_policy=dtype_policy)
    base.update(kw)
    pf = DistributedParticleFilter(RobotArmModel(), DistributedFilterConfig(**base))
    pf.initialize()
    return pf


def test_mixed_policy_tracks_as_well_as_float64():
    # The mixed policy draws float32 noise and runs the kinematics at
    # float32; its object-position RMSE against the truth stays within the
    # float32 budget of the float64 policy's (tests/engine/test_fused.py).
    model = RobotArmModel()
    rmse = {}
    for policy in ("float64", "mixed"):
        errs = []
        for seed in (1, 2, 3):
            truth = arm_truth(40, seed=10 + seed, model=model)
            pf = _arm_filter(policy, seed, n_particles=32, n_filters=16)
            assert pf.states.dtype == (np.float32 if policy == "mixed" else np.float64)
            errs += [model.estimate_error(pf.step(truth.measurements[k], truth.controls[k]),
                                          truth.states[k]) for k in range(40)]
        rmse[policy] = float(np.sqrt(np.mean(np.square(errs))))
    assert rmse["mixed"] <= rmse["float64"] * 1.25 + 0.05, rmse


def test_mixed_policy_checkpoint_resume_is_bit_identical(tmp_path):
    # Float32 normals come from 32-bit halves of the generator's 64-bit
    # outputs; the spare half buffered at the cut must survive the resume.
    model, cut, n = RobotArmModel(), 5, 10
    truth = arm_truth(n, seed=5, model=model)

    def run(pf, ks):
        return [pf.step(truth.measurements[k], truth.controls[k]) for k in ks]

    golden = np.stack(run(_arm_filter("mixed", 2), range(n)))
    pf = _arm_filter("mixed", 2)
    head = run(pf, range(cut))
    assert pf.rng.inner.state_dict()["bit_generator"]["has_uint32"] == 1
    pf.save_checkpoint(str(tmp_path / "arm.ckpt"))
    resumed = DistributedParticleFilter(model, pf.config)
    resumed.load_checkpoint(str(tmp_path / "arm.ckpt"))
    assert resumed.states.dtype == np.float32
    tail = run(resumed, range(cut, n))
    assert np.stack(head + tail).tobytes() == golden.tobytes()
