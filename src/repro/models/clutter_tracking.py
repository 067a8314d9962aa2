"""Tracking in clutter: a mixture measurement model with outliers.

The paper's introduction motivates particle filters with visual tracking
[1], where detections are frequently *clutter* (false measurements unrelated
to the target). The standard abstraction is a mixture likelihood:

    z_k = x_pos + v                 with probability 1 - p_clutter
    z_k ~ Uniform(arena)            with probability p_clutter

The resulting likelihood is heavy-tailed and non-Gaussian — a single outlier
yanks a Kalman filter off target, while a particle filter simply down-weights
it. This is the cleanest demonstration of *why* one pays for particle
filtering.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import StateSpaceModel
from repro.prng.streams import FilterRNG

_LOG_2PI = np.log(2.0 * np.pi)


class ClutterTrackingModel(StateSpaceModel):
    """Constant-velocity 2-D target observed through clutter.

    State ``(x, y, vx, vy)``; measurement: the 2-D detected position, which
    is the true position plus noise with probability ``1 - p_clutter`` and a
    uniform draw over the arena otherwise.
    """

    state_dim = 4
    measurement_dim = 2
    control_dim = 0

    def __init__(
        self,
        h_s: float = 0.1,
        sigma_pos: float = 0.01,
        sigma_vel: float = 0.05,
        sigma_meas: float = 0.05,
        p_clutter: float = 0.2,
        arena_halfwidth: float = 3.0,
        x0_mean: np.ndarray | None = None,
        x0_spread: float = 0.3,
    ):
        if not 0.0 <= p_clutter < 1.0:
            raise ValueError(f"p_clutter must be in [0, 1), got {p_clutter}")
        if arena_halfwidth <= 0 or sigma_meas <= 0:
            raise ValueError("arena_halfwidth and sigma_meas must be positive")
        self.h_s = float(h_s)
        self.sigma_pos = float(sigma_pos)
        self.sigma_vel = float(sigma_vel)
        self.sigma_meas = float(sigma_meas)
        self.p_clutter = float(p_clutter)
        self.arena = float(arena_halfwidth)
        self.x0_mean = np.asarray(x0_mean if x0_mean is not None else [0.0, 0.0, 0.3, 0.1], dtype=np.float64)
        self.x0_spread = float(x0_spread)

    def initial_particles(self, n: int, rng: FilterRNG, dtype=np.float64) -> np.ndarray:
        z = rng.normal((n, 4), dtype=np.float64)
        return (self.x0_mean[None, :] + self.x0_spread * z).astype(dtype, copy=False)

    def transition(self, states: np.ndarray, control, k: int, rng: FilterRNG) -> np.ndarray:
        states = np.asarray(states)
        out = states.copy()
        noise = rng.normal(states.shape, dtype=states.dtype)
        out[..., :2] += self.h_s * states[..., 2:] + self.sigma_pos * noise[..., :2]
        out[..., 2:] += self.sigma_vel * noise[..., 2:]
        return out

    def log_likelihood(self, states: np.ndarray, measurement: np.ndarray, k: int) -> np.ndarray:
        """Mixture likelihood: (1-p) N(z; pos, sigma^2 I) + p Uniform(arena)."""
        dz = np.asarray(states)[..., :2] - np.asarray(measurement)
        quad = np.sum(dz * dz, axis=-1) / self.sigma_meas**2
        log_gauss = -0.5 * quad - _LOG_2PI - 2.0 * np.log(self.sigma_meas)
        log_unif = -np.log((2.0 * self.arena) ** 2)
        # log( (1-p) e^{lg} + p e^{lu} ) computed stably.
        a = np.log1p(-self.p_clutter) + log_gauss
        b = np.log(self.p_clutter) + log_unif if self.p_clutter > 0 else -np.inf
        hi = np.maximum(a, b)
        return hi + np.log(np.exp(a - hi) + np.exp(b - hi))

    def initial_state(self, rng: FilterRNG) -> np.ndarray:
        return self.x0_mean.copy()

    def observe(self, state: np.ndarray, k: int, rng: FilterRNG) -> np.ndarray:
        if float(rng.uniform((1,))[0]) < self.p_clutter:
            return (rng.uniform((2,)) * 2.0 - 1.0) * self.arena
        return np.asarray(state)[:2] + self.sigma_meas * rng.normal((2,))

    def estimate_error(self, estimate: np.ndarray, truth: np.ndarray) -> float:
        return float(np.linalg.norm(np.asarray(estimate)[:2] - np.asarray(truth)[:2]))
