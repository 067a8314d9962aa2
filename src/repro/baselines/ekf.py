"""Extended Kalman filter with numerical Jacobians.

Generic over a deterministic transition mean ``f(x, u, k)`` and measurement
mean ``h(x)`` with additive Gaussian noise covariances Q and R. On the
robotic arm the camera equation's strong non-linearity is exactly the regime
where the EKF degrades and the particle filter earns its cost.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.metrics.timing import PhaseTimer


def numerical_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of ``fn`` at ``x``; shape (out_dim, in_dim)."""
    x = np.asarray(x, dtype=np.float64)
    f0 = np.asarray(fn(x))
    J = np.empty((f0.size, x.size))
    for i in range(x.size):
        dx = np.zeros_like(x)
        dx[i] = eps
        J[:, i] = (np.asarray(fn(x + dx)) - np.asarray(fn(x - dx))) / (2 * eps)
    return J


class ExtendedKalmanFilter:
    """First-order linearized Kalman recursion.

    Parameters
    ----------
    f:
        transition mean ``f(x, u, k) -> x'``.
    h:
        measurement mean ``h(x) -> z``.
    Q, R:
        additive process / measurement noise covariances.
    x0_mean, x0_cov:
        initial belief.
    """

    def __init__(self, f, h, Q, R, x0_mean, x0_cov):
        self.f = f
        self.h = h
        self.Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        self.R = np.atleast_2d(np.asarray(R, dtype=np.float64))
        self.x0_mean = np.asarray(x0_mean, dtype=np.float64)
        self.x0_cov = np.atleast_2d(np.asarray(x0_cov, dtype=np.float64))
        self.timer = PhaseTimer()
        self.mean: np.ndarray | None = None
        self.cov: np.ndarray | None = None
        self.k = 0

    def initialize(self) -> None:
        self.mean = self.x0_mean.copy()
        self.cov = self.x0_cov.copy()
        self.k = 0

    def step(self, measurement: np.ndarray, control: np.ndarray | None = None) -> np.ndarray:
        if self.mean is None:
            self.initialize()
        k = self.k
        # Predict through the linearized dynamics.
        F = numerical_jacobian(lambda x: self.f(x, control, k), self.mean)
        mean = np.asarray(self.f(self.mean, control, k), dtype=np.float64)
        cov = F @ self.cov @ F.T + self.Q
        # Update through the linearized measurement.
        H = numerical_jacobian(self.h, mean)
        S = H @ cov @ H.T + self.R
        K = cov @ H.T @ np.linalg.inv(S)
        innov = np.asarray(measurement) - np.asarray(self.h(mean))
        self.mean = mean + K @ innov
        self.cov = (np.eye(mean.size) - K @ H) @ cov
        self.k += 1
        return self.mean.copy()

    @classmethod
    def for_robot_arm(cls, model) -> "ExtendedKalmanFilter":
        """EKF configured for :class:`~repro.models.RobotArmModel`."""
        p = model.params
        K = model.n_joints

        def f(x, u, k):
            out = np.asarray(x, dtype=np.float64).copy()
            uu = np.zeros(K) if u is None else np.asarray(u)
            out[:K] += p.h_s * uu
            out[K : K + 2] += p.h_s * x[K + 2 : K + 4]
            return out

        Q = np.diag(model.process_sigma**2)
        R = np.diag(np.concatenate([np.full(K, p.sigma_theta_meas**2), np.full(2, p.sigma_camera**2)]))
        x0_cov = np.diag(
            np.concatenate(
                [np.full(K, p.init_spread_theta**2), np.full(2, p.init_spread_xy**2), np.full(2, p.init_spread_v**2)]
            )
        )
        return cls(f=f, h=model.measurement_mean, Q=Q, R=R, x0_mean=model.initial_mean(), x0_cov=x0_cov)
