"""The shared-memory data plane must beat pickle-over-pipe where it matters.

``transport="shm"`` exists to move large exchange payloads without
pickling them. That only shows once the payload dominates the round, so
the model here is built for it: a 64-wide state whose per-particle compute
is one noise draw, exchanged in full (t = m). Bit-parity between the two
transports is pinned in ``test_transport_parity.py``; this file pins the
direction of the speed difference.
"""

import numpy as np

from repro.backends import MultiprocessDistributedParticleFilter
from repro.core import DistributedFilterConfig
from repro.models.base import StateSpaceModel
from repro.prng import make_rng
from tests.speed import best_block_seconds


class PayloadAR1(StateSpaceModel):
    """``d``-wide AR(1) contraction; noise drives and the sensor reads
    coordinate 0 only, so exchanged particles are wide but cheap."""

    measurement_dim = 1

    def __init__(self, d=64, a=0.95, sigma=0.2, r=0.1):
        self.state_dim = d
        self.a, self.sigma, self.r = a, sigma, r

    def initial_particles(self, n, rng, dtype=np.float64):
        return rng.normal((n, self.state_dim)).astype(dtype, copy=False)

    def initial_state(self, rng):
        return rng.normal((self.state_dim,))

    def transition(self, states, control, k, rng):
        out = (self.a * states).astype(states.dtype, copy=False)
        out[..., 0] += (self.sigma * rng.normal(states.shape[:-1])).astype(
            states.dtype, copy=False)
        return out

    def log_likelihood(self, states, measurement, k):
        dz = states[..., 0] - measurement[0]
        return -0.5 * (dz / self.r) ** 2

    def observe(self, state, k, rng):
        return state[:1] + self.r * rng.normal((1,))


def test_shm_beats_pipe_on_wide_full_mirror_exchange():
    model = PayloadAR1()
    cfg = DistributedFilterConfig(
        n_particles=32, n_filters=64, topology="ring", n_exchange=32,
        estimator="weighted_mean", seed=42, dtype=np.float32)
    meas = model.simulate(2 + 3 * 10, make_rng("numpy", seed=7)).measurements
    filters = {t: MultiprocessDistributedParticleFilter(
        model, cfg, n_workers=2, transport=t) for t in ("pipe", "shm")}
    estimates = {t: [] for t in filters}
    try:
        best = best_block_seconds(
            {t: (lambda k, t=t: estimates[t].append(filters[t].step(meas[k])))
             for t in filters},
            warmup=2, block=10)
    finally:
        for pf in filters.values():
            pf.close()
    np.testing.assert_array_equal(estimates["pipe"], estimates["shm"])
    ratio = best["pipe"] / best["shm"]
    assert ratio > 1.0, f"shm ran {ratio:.2f}x pipe"
