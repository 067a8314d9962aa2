"""Bearings-only tracking: a four-state constant-velocity target observed by
angle-only sensors.

This is the size of "small estimation problems with up to four state
variables" for which the paper reports kHz update rates; multiple sensors can
be configured to make the problem observable.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import StateSpaceModel
from repro.prng.streams import FilterRNG


class BearingsOnlyModel(StateSpaceModel):
    state_dim = 4  # (x, y, vx, vy)
    control_dim = 0

    def __init__(
        self,
        sensors: np.ndarray | None = None,
        h_s: float = 0.1,
        sigma_pos: float = 0.01,
        sigma_vel: float = 0.05,
        sigma_bearing: float = 0.02,
        x0_mean: np.ndarray | None = None,
        x0_spread: float = 0.5,
    ):
        self.sensors = np.atleast_2d(sensors if sensors is not None else np.array([[0.0, 0.0], [4.0, 0.0]]))
        if self.sensors.shape[1] != 2:
            raise ValueError("sensors must be (n_sensors, 2)")
        self.measurement_dim = self.sensors.shape[0]
        self.h_s = float(h_s)
        self.sigma_pos = float(sigma_pos)
        self.sigma_vel = float(sigma_vel)
        self.sigma_bearing = float(sigma_bearing)
        self.x0_mean = np.asarray(x0_mean if x0_mean is not None else [2.0, 2.0, 0.1, -0.05], dtype=np.float64)
        self.x0_spread = float(x0_spread)

    def _bearings(self, states: np.ndarray) -> np.ndarray:
        pos = np.asarray(states)[..., None, :2]  # (..., 1, 2)
        rel = pos - self.sensors  # broadcast over sensors
        return np.arctan2(rel[..., 1], rel[..., 0])

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
        db = self._bearings(states) - np.asarray(measurement)
        # Wrap angular residuals into (-pi, pi] so bearings near +-pi compare correctly.
        db = np.arctan2(np.sin(db), np.cos(db))
        return -0.5 * np.sum((db / self.sigma_bearing) ** 2, axis=-1)

    def initial_state(self, rng: FilterRNG) -> np.ndarray:
        return self.x0_mean.copy()

    def observe(self, state: np.ndarray, k: int, rng: FilterRNG) -> np.ndarray:
        b = self._bearings(state)
        return b + self.sigma_bearing * rng.normal(b.shape, dtype=np.float64)

    def estimate_error(self, estimate: np.ndarray, truth: np.ndarray) -> float:
        return float(np.linalg.norm(np.asarray(estimate)[:2] - np.asarray(truth)[:2]))
