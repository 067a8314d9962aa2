"""Forward kinematics for the robotic arm, vectorized over particles.

The arm's joint chain: joint 0 is the base rotation about the vertical z-axis;
joints 1..K-1 pitch about the local y-axis. Every joint is followed by a link
of equal length along the local x-axis (total arm length L). The camera frame
is the end-effector frame; its optical axis is local x, so an observed object
is reported by its local (y, z) coordinates — the "highly non-linear
rotation-translation function h(x)" of the paper's measurement equation.

All pitches turn about one local y axis, so the chain is the yaw theta_0 and
one pitch by phi_i = theta_1 + ... + theta_i (phi_0 = 0): with e = (c0, s0, 0),
link i points along cos(phi_i) e - sin(phi_i) z, the end effector sits at
(r c0, r s0, -h) for r = sum L_i cos(phi_i) and h = sum L_i sin(phi_i), and an
object at (o_x, o_y, 0) has camera coordinates y = c0 o_y - s0 o_x and
z = sin(phi) (c0 o_x + s0 o_y - r) + cos(phi) h, where phi = phi_{K-1}.
"""

from __future__ import annotations

import numpy as np


def rot_z(theta: np.ndarray) -> np.ndarray:
    """Batched rotation matrices about z; ``theta`` (...,) -> (..., 3, 3)."""
    theta = np.asarray(theta)
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros(theta.shape + (3, 3), dtype=theta.dtype if theta.dtype.kind == "f" else np.float64)
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    out[..., 2, 2] = 1.0
    return out


def rot_y(theta: np.ndarray) -> np.ndarray:
    """Batched rotation matrices about y; ``theta`` (...,) -> (..., 3, 3)."""
    theta = np.asarray(theta)
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros(theta.shape + (3, 3), dtype=theta.dtype if theta.dtype.kind == "f" else np.float64)
    out[..., 0, 0] = c
    out[..., 0, 2] = s
    out[..., 1, 1] = 1.0
    out[..., 2, 0] = -s
    out[..., 2, 2] = c
    return out


def joint_major(angles: np.ndarray) -> np.ndarray:
    """``(..., K)`` angles as a C-contiguous ``(K, ...)`` copy, so elementwise work runs along rows."""
    return np.array(np.moveaxis(np.asarray(angles), -1, 0), order="C")


def _chain(theta: np.ndarray, link_lengths: np.ndarray):
    """``(c0, s0, cos phi, sin phi, r, h)``: trig and link sums at the angles' dtype."""
    link_lengths = np.asarray(link_lengths, dtype=theta.dtype if theta.dtype.kind == "f" else np.float64)
    K = theta.shape[0]
    if link_lengths.shape != (K,):
        raise ValueError(f"need {K} link lengths, got shape {link_lengths.shape}")
    phi = np.concatenate([theta[:1], np.zeros_like(theta[:1]), theta[1:]])  # theta_0, phi_0, ...
    for i in range(3, K + 1):  # np.cumsum(axis=0) adds in this order, ~20x slower
        phi[i] += phi[i - 1]
    cos, sin = np.cos(phi), np.sin(phi)
    r, h = np.tensordot(link_lengths, cos[1:], axes=1), np.tensordot(link_lengths, sin[1:], axes=1)
    return cos[0], sin[0], cos[-1], sin[-1], r, h


def camera_yz(theta: np.ndarray, link_lengths: np.ndarray, obj_x, obj_y):
    """Camera ``(y, z)`` of the object at ``(obj_x, obj_y, 0)``; ``theta`` from :func:`joint_major`."""
    c0, s0, c, s, r, h = _chain(theta, link_lengths)
    return c0 * obj_y - s0 * obj_x, s * (c0 * obj_x + s0 * obj_y - r) + c * h


def forward_kinematics(angles: np.ndarray, link_lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """End-effector pose for a batch of joint configurations.

    Parameters
    ----------
    angles:
        ``(..., K)`` joint angles; column 0 is the base yaw, the rest pitch.
    link_lengths:
        ``(K,)`` length of the link following each joint.

    Returns
    -------
    (position, orientation):
        ``(..., 3)`` end-effector positions and ``(..., 3, 3)`` rotation
        matrices mapping camera-frame vectors into the world frame.
    """
    c0, s0, c, s, r, h = _chain(joint_major(angles), link_lengths)
    p = np.empty(np.shape(r) + (3,))
    p[..., 0], p[..., 1], p[..., 2] = r * c0, r * s0, -h
    R = np.empty(np.shape(c0) + (3, 3), dtype=np.result_type(c0, s0))
    R[..., 0, 0], R[..., 1, 0], R[..., 2, 0] = c * c0, c * s0, -s
    R[..., 0, 1], R[..., 1, 1], R[..., 2, 1] = -s0, c0, 0.0
    R[..., 0, 2], R[..., 1, 2], R[..., 2, 2] = s * c0, s * s0, c
    return p, R


def camera_projection(angles: np.ndarray, link_lengths: np.ndarray, obj_xy: np.ndarray) -> np.ndarray:
    """Object position in the camera frame: the measurement function h(x).

    ``obj_xy`` is ``(..., 2)`` (object on the z=0 plane), broadcast-compatible
    with the batch shape of ``angles``. Returns ``(..., 2)`` camera-plane
    coordinates (the local y and z components of the camera->object ray).
    """
    obj_xy = np.asarray(obj_xy)
    y, z = camera_yz(joint_major(angles), link_lengths, obj_xy[..., 0], obj_xy[..., 1])
    return np.concatenate([y[..., None], z[..., None]], axis=-1)
