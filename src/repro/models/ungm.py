"""Univariate nonlinear growth model — the classic particle-filter benchmark.

x_k = x/2 + 25 x / (1 + x^2) + 8 cos(1.2 k) + w_k,  z_k = x^2 / 20 + v_k.

Bimodal posteriors (the squared measurement loses the sign of x) make this
the canonical "Kalman filters fail here" problem; it is the type of academic
non-linear benchmark the early parallel-PF literature cited by the paper
evaluates on.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import StateSpaceModel
from repro.prng.streams import FilterRNG


class UNGMModel(StateSpaceModel):
    state_dim = 1
    measurement_dim = 1
    control_dim = 0

    def __init__(self, sigma_w: float = np.sqrt(10.0), sigma_v: float = 1.0, x0_sigma: float = np.sqrt(2.0)):
        if sigma_w <= 0 or sigma_v <= 0 or x0_sigma <= 0:
            raise ValueError("noise scales must be positive")
        self.sigma_w = float(sigma_w)
        self.sigma_v = float(sigma_v)
        self.x0_sigma = float(x0_sigma)

    def _drift(self, x: np.ndarray, k: int) -> np.ndarray:
        return 0.5 * x + 25.0 * x / (1.0 + x * x) + 8.0 * np.cos(1.2 * k)

    def initial_particles(self, n: int, rng: FilterRNG, dtype=np.float64) -> np.ndarray:
        return (self.x0_sigma * rng.normal((n, 1), dtype=np.float64)).astype(dtype, copy=False)

    def transition(self, states: np.ndarray, control, k: int, rng: FilterRNG) -> np.ndarray:
        states = np.asarray(states)
        noise = rng.normal(states.shape, dtype=states.dtype)
        return self._drift(states, k) + self.sigma_w * noise

    def log_likelihood(self, states: np.ndarray, measurement: np.ndarray, k: int) -> np.ndarray:
        z_hat = np.asarray(states)[..., 0] ** 2 / 20.0
        dz = z_hat - float(np.asarray(measurement).reshape(()))
        return -0.5 * (dz / self.sigma_v) ** 2

    def initial_state(self, rng: FilterRNG) -> np.ndarray:
        return self.x0_sigma * rng.normal((1,))

    def observe(self, state: np.ndarray, k: int, rng: FilterRNG) -> np.ndarray:
        return np.asarray(state) ** 2 / 20.0 + self.sigma_v * rng.normal((1,))
