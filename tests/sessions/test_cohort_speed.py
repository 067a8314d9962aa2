"""Cohort batching must beat stepping the same sessions one filter at a time.

Packing S sessions into one slab pays off because a solo round at session
scale is almost pure interpreter overhead, which the cohort pays once per
slab. Bit-parity between the two paths is pinned in ``test_parity.py``;
this file pins only the direction of the speed difference.
"""

import pytest

from repro.core import DistributedFilterConfig, DistributedParticleFilter
from repro.sessions import SessionManager
from tests.sessions.helpers import measurements, scalar_model
from tests.speed import best_block_seconds

SESSIONS = 64


def cfg(seed, execution):
    return DistributedFilterConfig(n_particles=32, n_filters=1, n_exchange=0,
                                   seed=seed, execution=execution)


@pytest.mark.parametrize("execution", ["reference", "compiled"])
def test_cohort_beats_solo_filters(execution):
    model = scalar_model()
    meas = measurements(SESSIONS, 3 + 3 * 10)
    solo = [DistributedParticleFilter(model, cfg(i, execution))
            for i in range(SESSIONS)]
    mgr = SessionManager()
    for i in range(SESSIONS):
        mgr.attach(f"s{i}", model, cfg(i, execution))
    assert mgr.stats()["solo_sessions"] == 0  # all inside the cohort envelope

    def step_solo(k):
        for i, pf in enumerate(solo):
            pf.step(meas[i, k])

    def step_cohort(k):
        for i in range(SESSIONS):
            mgr.submit(f"s{i}", meas[i, k])
        assert len(mgr.tick()) == SESSIONS

    best = best_block_seconds({"solo": step_solo, "cohort": step_cohort},
                              warmup=3, block=10)
    ratio = best["solo"] / best["cohort"]
    assert ratio > 1.0, f"the cohort ran {ratio:.2f}x the solo filters"
