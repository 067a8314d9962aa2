"""Numerical robustness: the filter must survive pathological weights."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    CentralizedFilterConfig,
    CentralizedParticleFilter,
    DistributedFilterConfig,
    DistributedParticleFilter,
    estimator,
)
from repro.engine import vector_stages
from repro.engine.state import FilterState
from repro.models import LinearGaussianModel
from repro.models.base import StateSpaceModel
from repro.sessions import stages as cohort_stages
from repro.utils import arrays
from repro.utils.arrays import healthy_round


class HostileModel(StateSpaceModel):
    """A model whose likelihood can underflow to 'all particles impossible'."""

    state_dim = 1
    measurement_dim = 1
    control_dim = 0

    def __init__(self, sigma=1e-8):
        self.sigma = sigma

    def initial_particles(self, n, rng, dtype=np.float64):
        return rng.normal((n, 1), dtype=dtype)

    def transition(self, states, control, k, rng):
        return np.asarray(states) + 0.01 * rng.normal(np.asarray(states).shape).astype(np.asarray(states).dtype)

    def log_likelihood(self, states, measurement, k):
        # Absurdly peaked likelihood: virtually every particle gets -1e20.
        d = (np.asarray(states)[..., 0] - float(np.asarray(measurement).reshape(()))) / self.sigma
        return -0.5 * d * d

    def initial_state(self, rng):
        return np.zeros(1)

    def observe(self, state, k, rng):
        return np.asarray(state) + self.sigma * rng.normal((1,))


def test_distributed_survives_total_underflow():
    # Measurement far from every particle: all weights underflow to zero
    # after the shift-exp; the resampler's uniform fallback must keep the
    # filter alive and finite.
    model = HostileModel()
    pf = DistributedParticleFilter(
        model, DistributedFilterConfig(n_particles=16, n_filters=8, estimator="weighted_mean", seed=0)
    )
    est = pf.step(np.array([1e6]))  # hopeless measurement
    assert np.isfinite(est).all()
    assert np.isfinite(pf.states).all()
    # And it keeps going on subsequent steps.
    est = pf.step(np.array([0.0]))
    assert np.isfinite(est).all()


def test_centralized_survives_total_underflow():
    model = HostileModel()
    pf = CentralizedParticleFilter(model, CentralizedFilterConfig(n_particles=64, resampler="rws", seed=0))
    est = pf.step(np.array([1e6]))
    assert np.isfinite(est).all()
    assert np.isfinite(pf.states).all()


def test_extreme_but_finite_logweights_do_not_overflow():
    model = HostileModel(sigma=1e-4)
    pf = DistributedParticleFilter(
        model, DistributedFilterConfig(n_particles=32, n_filters=4, estimator="max_weight", seed=1)
    )
    for z in (0.0, 0.5, -0.5):
        est = pf.step(np.array([z]))
        assert np.isfinite(est).all()
    assert not np.isnan(pf.log_weights).any()


def test_same_seed_identical_different_seed_different():
    model = LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])
    def run(seed):
        pf = DistributedParticleFilter(
            model, DistributedFilterConfig(n_particles=16, n_filters=8, seed=seed)
        )
        return np.stack([pf.step(np.array([0.1])) for _ in range(5)])

    a, b, c = run(7), run(7), run(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_filter_with_philox_rng_backend():
    # The from-scratch counter-based generator drives a whole filter run.
    model = LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])
    pf = DistributedParticleFilter(
        model,
        DistributedFilterConfig(n_particles=16, n_filters=8, rng="philox", estimator="weighted_mean", seed=5),
    )
    ests = [pf.step(np.array([0.2]))[0] for _ in range(10)]
    assert np.isfinite(ests).all()
    # Posterior should move toward the repeated measurement.
    assert abs(ests[-1] - 0.2) < 0.4


def test_filter_with_xorshift_rng_backend():
    model = LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])
    pf = DistributedParticleFilter(
        model,
        DistributedFilterConfig(n_particles=16, n_filters=8, rng="xorshift", estimator="weighted_mean", seed=5),
    )
    ests = [pf.step(np.array([0.2]))[0] for _ in range(10)]
    assert np.isfinite(ests).all()


# ---------------------------------------------------------------------------
# Healthy-round guard: ``healthy_round`` lets heal and estimate skip their
# element-wise masks. Whatever the guard decides, every result and heal
# counter must equal the element-wise path's: on huge finite states, on
# -inf padding (healthy) and on every kind of corruption (not).
# ---------------------------------------------------------------------------

GUARD_MODULES = (vector_stages, estimator, cohort_stages)
F_ROWS, M, D, BLOCK = 6, 8, 3, 3
HEALTHY_KINDS = ("healthy", "huge", "padded")


def _guard_case(kind):
    rng = np.random.default_rng(7)
    lw = rng.normal(size=(F_ROWS, M))
    if kind != "huge":
        states = rng.normal(size=(F_ROWS, M, D)).astype(np.float32)
    else:
        # Every element finite, but a float32 sum of them would overflow.
        states = rng.uniform(2.9e38, 3.0e38, size=(F_ROWS, M, D)).astype(np.float32)
        with np.errstate(over="ignore"):
            assert np.isfinite(states).all() and not np.isfinite(states.sum())
    # The corrupt particle holds the top weight, so an estimate that failed
    # to exclude it would return it.
    if kind == "nan_state":
        states[1, 2, 0] = np.nan
        lw[1, 2] = lw.max() + 1.0
    elif kind == "inf_state":
        states[4, 5, 2] = np.inf
        lw[4, 5] = lw.max() + 1.0
    elif kind == "nan_weight":
        lw[3, 1] = np.nan
    elif kind == "dead_row":
        lw[2] = -np.inf
    elif kind == "padded":
        for f in range(F_ROWS):
            lw[f, 1 + f:] = -np.inf
    return lw, states


def _cohort_ctx():
    idx = np.arange(F_ROWS)
    lo = idx // BLOCK * BLOCK
    table = np.stack([lo + (idx - lo + 1) % BLOCK, lo + (idx - lo - 1) % BLOCK], axis=1)
    return cohort_stages.CohortExecutionContext(
        model=None, config=SimpleNamespace(estimator="max_weight"), rng=None,
        resampler=None, policy=None, dtype=np.float32, table=table,
        mask=np.ones_like(table, dtype=bool),
        cohort_sessions=[SimpleNamespace(heal_counters={"sanitized": 0, "rejuvenated": 0})
                         for _ in range(F_ROWS // BLOCK)],
        cohort_block_rows=BLOCK)


def _run_guarded_kernels(lw, states):
    out = {}
    w = lw.copy()
    out["sanitize"] = (arrays.sanitize_log_weights(w, states.copy()), w)
    ctx = _cohort_ctx()
    st = FilterState(states=states.copy(), log_weights=lw.copy())
    vector_stages.heal_population(ctx, st)
    out["heal"] = (st.states, st.log_weights, dict(st.heal_counters))
    st = FilterState(states=states.copy(), log_weights=lw.copy())
    vector_stages.heal_local(ctx, st)
    out["heal_local"] = (st.states, st.log_weights, dict(st.heal_counters))
    out["estimate"] = estimator.max_weight_estimate(states, lw)
    st = FilterState(states=states.copy(), log_weights=lw.copy())
    cohort_stages.cohort_heal(ctx, st)
    out["cohort_heal"] = (st.states, st.log_weights, dict(st.heal_counters),
                          [dict(s.heal_counters) for s in ctx.cohort_sessions])
    st = FilterState(states=states.copy(), log_weights=lw.copy())
    cohort_stages.cohort_estimate(ctx, st)
    out["cohort_estimate"] = st.estimate
    return out


def _assert_same(a, b):
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", HEALTHY_KINDS + ("nan_state", "inf_state",
                                                  "nan_weight", "dead_row"))
def test_healthy_guard_matches_elementwise_path(kind, monkeypatch):
    lw, states = _guard_case(kind)
    assert healthy_round(lw, states) == (kind in HEALTHY_KINDS)
    guarded = _run_guarded_kernels(lw, states)
    for module in GUARD_MODULES:
        monkeypatch.setattr(module, "healthy_round", lambda *a: False)
    elementwise = _run_guarded_kernels(lw, states)
    for name in guarded:
        _assert_same(guarded[name], elementwise[name])
    n_bad = guarded["sanitize"][0]
    assert n_bad == {"nan_state": 1, "inf_state": 1, "nan_weight": 1}.get(kind, 0)
    assert guarded["heal"][2]["sanitized"] == n_bad
    assert np.isfinite(guarded["estimate"]).all()


@pytest.mark.filterwarnings("error")
def test_healthy_round_cases():
    lw = np.zeros((2, 3))
    assert healthy_round(lw, np.full((2, 3, 1), 3e38, dtype=np.float32))
    lw[:, 2] = -np.inf  # zero-mass / padded slots are healthy
    assert healthy_round(lw) and healthy_round(lw[0]) and healthy_round(lw, np.ones((2, 3, 1)))
    for bad in (np.nan, np.inf):
        w = lw.copy()
        w[1, 0] = bad
        assert not healthy_round(w)
    w = lw.copy()
    w[1] = -np.inf  # a row without a finite weight needs a rescue
    assert not healthy_round(w)
    for bad in (np.nan, np.inf, -np.inf):
        states = np.ones((2, 3, 1))
        states[0, 2, 0] = bad  # even behind a -inf weight, a bad state is unhealthy
        assert not healthy_round(lw, states)
