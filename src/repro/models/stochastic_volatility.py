"""Stochastic volatility: the econometrics application of the introduction.

The paper motivates particle filters with econometrics (Flury & Shephard's
particle-filter analysis of dynamic economic models, reference [3]); the
canonical such model is log-volatility as a latent AR(1):

    x_k = mu + phi (x_{k-1} - mu) + sigma eta_k,      eta ~ N(0,1)
    z_k = exp(x_k / 2) eps_k,                          eps ~ N(0,1)

The measurement density p(z | x) = N(0, exp(x)) is non-Gaussian in x and has
no closed-form filter, so a PF is the standard estimator.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import StateSpaceModel
from repro.prng.streams import FilterRNG

_LOG_2PI = np.log(2.0 * np.pi)


class StochasticVolatilityModel(StateSpaceModel):
    state_dim = 1
    measurement_dim = 1
    control_dim = 0

    def __init__(self, mu: float = -1.0, phi: float = 0.95, sigma: float = 0.25):
        if not -1.0 < phi < 1.0:
            raise ValueError(f"phi must be in (-1, 1) for stationarity, got {phi}")
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.mu = float(mu)
        self.phi = float(phi)
        self.sigma = float(sigma)
        # Stationary distribution of the latent AR(1).
        self.x0_sigma = sigma / np.sqrt(1.0 - phi * phi)

    def initial_particles(self, n: int, rng: FilterRNG, dtype=np.float64) -> np.ndarray:
        z = rng.normal((n, 1), dtype=np.float64)
        return (self.mu + self.x0_sigma * z).astype(dtype, copy=False)

    def transition(self, states: np.ndarray, control, k: int, rng: FilterRNG) -> np.ndarray:
        states = np.asarray(states)
        noise = rng.normal(states.shape, dtype=states.dtype)
        return self.mu + self.phi * (states - self.mu) + self.sigma * noise

    def log_likelihood(self, states: np.ndarray, measurement: np.ndarray, k: int) -> np.ndarray:
        x = np.asarray(states)[..., 0].astype(np.float64)
        z = float(np.asarray(measurement).reshape(()))
        return -0.5 * (_LOG_2PI + x + z * z * np.exp(-x))

    def initial_state(self, rng: FilterRNG) -> np.ndarray:
        return np.array([self.mu + self.x0_sigma * float(rng.normal((1,))[0])])

    def observe(self, state: np.ndarray, k: int, rng: FilterRNG) -> np.ndarray:
        x = float(np.asarray(state).reshape(-1)[0])
        return np.exp(x / 2.0) * rng.normal((1,))
