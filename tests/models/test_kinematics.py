"""Geometric tests for the arm forward kinematics and camera projection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import forward_kinematics, rot_y, rot_z
from repro.models.kinematics import camera_projection


def test_rotation_matrices_are_orthonormal():
    theta = np.linspace(-np.pi, np.pi, 7)
    for R in (rot_z(theta), rot_y(theta)):
        eye = np.einsum("...ij,...kj->...ik", R, R)
        np.testing.assert_allclose(eye, np.broadcast_to(np.eye(3), R.shape), atol=1e-12)
        np.testing.assert_allclose(np.linalg.det(R), 1.0, atol=1e-12)


def test_rot_z_rotates_x_to_y():
    R = rot_z(np.pi / 2)
    np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def test_rot_y_rotates_x_to_minus_z():
    R = rot_y(np.pi / 2)
    np.testing.assert_allclose(R @ [1, 0, 0], [0, 0, -1], atol=1e-12)


def test_straight_arm_extends_along_x():
    angles = np.zeros(4)
    links = np.full(4, 0.25)
    p, R = forward_kinematics(angles, links)
    np.testing.assert_allclose(p, [1.0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(R, np.eye(3), atol=1e-12)


def test_base_yaw_rotates_whole_arm():
    angles = np.array([np.pi / 2, 0, 0])
    p, _ = forward_kinematics(angles, np.full(3, 1 / 3))
    np.testing.assert_allclose(p, [0, 1.0, 0], atol=1e-12)


def test_pitch_folds_arm_up():
    # One pitch joint at -90 degrees lifts the following links to +z.
    angles = np.array([0.0, -np.pi / 2])
    p, _ = forward_kinematics(angles, np.array([0.5, 0.5]))
    np.testing.assert_allclose(p, [0.5, 0, 0.5], atol=1e-12)


def test_batched_matches_single():
    rng = np.random.default_rng(0)
    angles = rng.uniform(-np.pi, np.pi, size=(10, 5))
    links = np.full(5, 0.2)
    p_batch, R_batch = forward_kinematics(angles, links)
    for i in range(10):
        p, R = forward_kinematics(angles[i], links)
        np.testing.assert_allclose(p_batch[i], p, atol=1e-12)
        np.testing.assert_allclose(R_batch[i], R, atol=1e-12)


def test_link_length_mismatch():
    with pytest.raises(ValueError):
        forward_kinematics(np.zeros(3), np.ones(2))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
def test_arm_reach_is_bounded_property(K, seed):
    angles = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=K)
    links = np.full(K, 1.0 / K)
    p, R = forward_kinematics(angles, links)
    assert np.linalg.norm(p) <= 1.0 + 1e-9
    np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-9)


def test_camera_projection_object_on_axis():
    # Straight arm along x, object further along x: ray is purely on the
    # optical axis, so both camera-plane coordinates vanish.
    angles = np.zeros(3)
    links = np.full(3, 1 / 3)
    c = camera_projection(angles, links, np.array([2.0, 0.0]))
    np.testing.assert_allclose(c, [0.0, 0.0], atol=1e-12)


def test_camera_projection_lateral_object():
    # Object to the left of a straight arm appears at +y in the camera frame
    # and below the (z=arm height) plane stays at z=0 here.
    angles = np.zeros(2)
    links = np.full(2, 0.5)
    c = camera_projection(angles, links, np.array([1.0, 0.7]))
    np.testing.assert_allclose(c, [0.7, 0.0], atol=1e-12)


def test_camera_projection_depends_on_pose():
    links = np.full(3, 1 / 3)
    obj = np.array([0.4, 0.3])
    c1 = camera_projection(np.zeros(3), links, obj)
    c2 = camera_projection(np.array([0.3, -0.2, 0.1]), links, obj)
    assert not np.allclose(c1, c2)


def _reference_pose(angles, links):
    """Float64 oracle: compose rot_z(theta_0) @ rot_y(theta_1) @ ... one joint
    at a time, translating along each link's local x axis."""
    angles = np.asarray(angles, dtype=np.float64)
    R = rot_z(angles[..., 0])
    p = R[..., :, 0] * links[0]
    for i in range(1, angles.shape[-1]):
        R = R @ rot_y(angles[..., i])
        p = p + R[..., :, 0] * links[i]
    return p, R


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
@pytest.mark.parametrize("K", [1, 2, 5, 44])
def test_closed_form_matches_rotation_composition(K, shape, dtype, tol):
    rng = np.random.default_rng(K)
    angles = rng.uniform(-np.pi, np.pi, size=shape + (K,)).astype(dtype)
    obj = rng.uniform(-2.0, 2.0, size=shape + (2,)).astype(dtype)
    links = np.full(K, 1.0 / K)
    p_ref, R_ref = _reference_pose(angles, links)
    rel = np.concatenate([obj, np.zeros(shape + (1,))], axis=-1) - p_ref
    cam_ref = np.einsum("...ij,...i->...j", R_ref, rel)[..., 1:]

    p, R = forward_kinematics(angles, links)
    assert p.shape == shape + (3,) and R.shape == shape + (3, 3)
    np.testing.assert_allclose(p, p_ref, rtol=0, atol=tol)
    np.testing.assert_allclose(R, R_ref, rtol=0, atol=tol)
    cam = camera_projection(angles, links, obj)
    assert cam.shape == shape + (2,)
    np.testing.assert_allclose(cam, cam_ref, rtol=0, atol=tol)
