"""Models the benchmark runs, owned by the benchmark.

The AR(1) model is a copy kept here, not an import from ``repro.bench``, so
that a change under ``src/`` cannot silently change what a workload computes.
The robot-arm model is the paper's own and comes from the package; the
benchmark only subclasses it to time its calls during a traced run.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.signal import lfilter

from repro.models import RobotArmModel
from repro.models.base import StateSpaceModel


class AR1Model(StateSpaceModel):
    """A scalar AR(1) in coordinate 0, carrying ``d - 1`` payload coordinates.

    ``x_k[0] = a x_{k-1}[0] + sigma w_k`` and ``z_k = x_k[0] + sqrt(r) v_k``;
    the payload coordinates never change. With ``d = 1`` the round cost is
    almost all engine overhead; with ``d = 64`` exchanged particles are large
    while the per-particle work stays one draw and a scale, so transport cost
    dominates. (A payload that decayed with ``a`` would reach float32
    denormals after about 1,700 steps and slow every later step.) Both
    methods are elementwise over leading batch dimensions, ignore ``k`` and
    index the measurement's last axis, which is what makes the model
    cohort-batchable.
    """

    measurement_dim = 1
    control_dim = 0
    supports_cohort_batch = True

    def __init__(self, d: int = 1, a: float = 0.95, sigma: float = 0.2,
                 r: float = 0.1):
        self.state_dim = int(d)
        self.a, self.sigma, self.r = float(a), float(sigma), float(r)

    def signature(self) -> tuple:
        return ("perfbench-ar1", self.state_dim, self.a, self.sigma, self.r)

    def initial_particles(self, n, rng, dtype=np.float64):
        return rng.normal((n, self.state_dim)).astype(dtype, copy=False)

    def transition(self, states, control, k, rng):
        out = np.array(states)
        noise = rng.normal(out.shape[:-1])
        out[..., 0] *= self.a
        out[..., 0] += (self.sigma * noise).astype(out.dtype, copy=False)
        return out

    def log_likelihood(self, states, measurement, k):
        dz = np.asarray(states)[..., 0] - np.asarray(measurement)[..., 0]
        return -0.5 / self.r * dz * dz

    def initial_state(self, rng):
        return rng.normal((self.state_dim,))

    def observe(self, state, k, rng):
        return np.asarray(state)[:1] + np.sqrt(self.r) * rng.normal((1,))

    def estimate_error(self, estimate, truth) -> float:
        """Error in the observed coordinate; the payload is never observed."""
        return float(abs(np.asarray(estimate)[0] - np.asarray(truth)[0]))

    def truth(self, n_steps: int, n_series: int, rng: np.random.Generator):
        """``n_series`` independent trajectories of coordinate 0.

        Returns ``(states, measurements)``, both ``(n_steps, n_series)``.
        """
        a = self.a
        x0 = rng.standard_normal(n_series)
        w = rng.standard_normal((n_steps, n_series))
        v = rng.standard_normal((n_steps, n_series))
        states = lfilter([1.0], [1.0, -a], self.sigma * w, axis=0,
                         zi=(a * x0)[None, :])[0]
        return states, states + np.sqrt(self.r) * v


class _TimedCalls:
    """Times ``transition`` and ``log_likelihood`` into a :class:`Meter`."""

    meter = None

    def transition(self, states, control, k, rng):
        meter = self.meter
        if meter is None or not meter.on:
            return super().transition(states, control, k, rng)
        start = time.perf_counter()
        out = super().transition(states, control, k, rng)
        meter.record("transition", start, time.perf_counter())
        return out

    def log_likelihood(self, states, measurement, k):
        meter = self.meter
        if meter is None or not meter.on:
            return super().log_likelihood(states, measurement, k)
        start = time.perf_counter()
        out = super().log_likelihood(states, measurement, k)
        meter.record("log_likelihood", start, time.perf_counter())
        return out


class TimedArm(_TimedCalls, RobotArmModel):
    def __init__(self, meter, params=None):
        super().__init__(params)
        self.meter = meter


class TimedAR1(_TimedCalls, AR1Model):
    def __init__(self, meter, **kwargs):
        super().__init__(**kwargs)
        self.meter = meter
