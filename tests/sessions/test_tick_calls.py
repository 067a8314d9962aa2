"""Call budget of a cohort tick: per session, only the API and the RNG.

A tick's per-session work should be what the client API needs (``submit``
and one :class:`~repro.sessions.StepResult`) and what bit parity needs (that
session's own generator calls inside the striped draws); packing, demux and
RNG binding are one NumPy call or one comprehension per cohort step. Calls,
not seconds: ``cProfile``'s count repeats exactly from run to run, so the
bound does not depend on the host's timing noise.
"""

import cProfile
import pstats

import numpy as np
import pytest

from repro.core import DistributedFilterConfig
from repro.sessions import SessionManager
from tests.sessions.helpers import measurements, scalar_model

#: Python and C function calls a tick may add per extra ready session.
BUDGET = 12
IDLE_SHARE = 0.1
TICKS = 3


def calls_per_tick(n_sessions, execution):
    """``(calls, ready sessions)`` of one submit-then-tick cycle, averaged
    over :data:`TICKS` profiled ticks with a seeded tenth of sessions idle."""
    model = scalar_model()
    mgr = SessionManager()
    sids = [f"s{i}" for i in range(n_sessions)]
    for i, sid in enumerate(sids):
        mgr.attach(sid, model, DistributedFilterConfig(
            n_particles=32, n_filters=1, n_exchange=0, seed=i, execution=execution))
    meas = measurements(n_sessions, 3 + TICKS)
    rng = np.random.default_rng(5)
    n_ready = n_sessions - int(n_sessions * IDLE_SHARE)

    def cycle(k):
        for i in sorted(rng.permutation(n_sessions)[:n_ready]):
            mgr.submit(sids[i], meas[i, k])
        assert len(mgr.tick()) == n_ready

    for k in range(3):  # lazy set-up: contexts, scratch, fused plans
        cycle(k)
    prof = cProfile.Profile()
    for k in range(3, 3 + TICKS):
        prof.runcall(cycle, k)
    return pstats.Stats(prof).total_calls / TICKS, n_ready


@pytest.mark.parametrize("execution", ["reference", "compiled"])
def test_tick_calls_per_extra_session(execution):
    small, r_small = calls_per_tick(64, execution)
    large, r_large = calls_per_tick(256, execution)
    per_session = (large - small) / (r_large - r_small)
    assert per_session <= BUDGET, (
        f"a {execution} tick costs {per_session:.1f} calls per extra ready "
        f"session (budget {BUDGET})")
