"""Tests for effective sample size and resampling policies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.prng import make_rng
from repro.resampling import (
    AlwaysResample,
    ESSThresholdPolicy,
    RandomFrequencyPolicy,
    effective_sample_size,
)


def test_ess_uniform_equals_n():
    assert effective_sample_size(np.ones(40)) == pytest.approx(40.0)


def test_ess_point_mass_equals_one():
    w = np.zeros(40)
    w[3] = 5.0
    assert effective_sample_size(w) == pytest.approx(1.0)


def test_ess_batched_rows():
    w = np.stack([np.ones(8), np.concatenate([np.ones(1), np.zeros(7)])])
    ess = effective_sample_size(w, axis=1)
    np.testing.assert_allclose(ess, [8.0, 1.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=100))
def test_ess_bounds_property(ws):
    w = np.asarray(ws)
    ess = effective_sample_size(w)
    assert 1.0 - 1e-9 <= ess <= w.size + 1e-9


def test_always_policy():
    mask = AlwaysResample().should_resample(np.ones((5, 4)), make_rng("numpy", seed=0))
    assert mask.all() and mask.shape == (5,)


def test_ess_threshold_policy():
    degenerate = np.concatenate([np.ones(1), np.zeros(15)])
    w = np.stack([np.ones(16), degenerate])
    mask = ESSThresholdPolicy(ratio=0.5).should_resample(w, make_rng("numpy", seed=0))
    np.testing.assert_array_equal(mask, [False, True])


class TestESSThresholdLiveWidth:
    """Regression: the threshold must scale with each sub-filter's *live*
    width, not the padded capacity. A shrunken-but-diverse row under the
    width-aware layout (or a healed population whose masked slots carry zero
    weight) would otherwise resample every round."""

    def test_masked_padding_does_not_inflate_threshold(self):
        # Row 0: 4 live uniform particles in a capacity-16 row. Live ESS is
        # 4 == 1.0 * m_i, comfortably above 0.5 * 4 — healthy.
        w = np.zeros((2, 16))
        w[0, :4] = 1.0
        w[1, 0] = 1.0  # genuinely collapsed row: 1 live particle of 8
        w[1, 1] = 1e-9
        widths = np.array([4, 8])
        policy = ESSThresholdPolicy(ratio=0.5)
        mask = policy.should_resample(w, make_rng("numpy", seed=0), widths=widths)
        np.testing.assert_array_equal(mask, [False, True])

    def test_padded_capacity_would_wrongly_resample(self):
        # The bug being pinned: against the padded width (16) the same
        # healthy row falls below threshold (4 < 0.5 * 16) and churns.
        w = np.zeros((1, 16))
        w[0, :4] = 1.0
        policy = ESSThresholdPolicy(ratio=0.5)
        wrong = policy.should_resample(w, make_rng("numpy", seed=0))
        right = policy.should_resample(w, make_rng("numpy", seed=0),
                                       widths=np.array([4]))
        assert wrong[0] and not right[0]

    def test_healed_population_thresholds_on_live_width(self):
        # End-to-end: an adaptive run with ESS-gated resampling where rows
        # genuinely shrink below capacity must stay finite and keep the
        # live-width threshold semantics (no per-round churn of healthy
        # shrunken rows is observable as a stable, finite trace).
        from repro.core import DistributedFilterConfig, DistributedParticleFilter
        from repro.models import LinearGaussianModel

        model = LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])
        config = DistributedFilterConfig(
            n_particles=8, n_filters=6, topology="ring", n_exchange=1,
            seed=11, allocation="mass", alloc_min_width=2,
            alloc_hysteresis=0.0, resample_policy="ess", resample_arg=0.5)
        pf = DistributedParticleFilter(model, config)
        truth = model.simulate(15, make_rng("numpy", seed=5))
        ests = np.stack([pf.step(truth.measurements[k]) for k in range(15)])
        assert np.isfinite(ests).all()
        assert pf.widths.min() < config.n_particles  # rows actually shrank


def test_ess_threshold_validation():
    with pytest.raises(ValueError):
        ESSThresholdPolicy(ratio=0.0)
    with pytest.raises(ValueError):
        ESSThresholdPolicy(ratio=1.5)


def test_random_frequency_policy_rates():
    rng = make_rng("numpy", seed=1)
    w = np.ones((10_000, 4))
    mask = RandomFrequencyPolicy(frequency=0.3).should_resample(w, rng)
    assert abs(mask.mean() - 0.3) < 0.02
    assert RandomFrequencyPolicy(frequency=1.0).should_resample(w, rng).all()
    assert not RandomFrequencyPolicy(frequency=0.0).should_resample(w, rng).any()


def test_random_frequency_validation():
    with pytest.raises(ValueError):
        RandomFrequencyPolicy(frequency=-0.1)
    with pytest.raises(ValueError):
        RandomFrequencyPolicy(frequency=1.1)


class TestESSThresholdMasslessRow:
    """A row with no usable mass reads ESS 0 inside the policy, so it is
    resampled from its pool instead of keeping zero finite weights."""

    def test_massless_rows_resample(self):
        w = np.ones((4, 8))
        w[1] = 0.0
        w[2] = np.nan
        w[3, 0] = np.nan  # one unusable slot; the row still has mass
        policy = ESSThresholdPolicy(ratio=0.5)
        mask = policy.should_resample(w, make_rng("numpy", seed=0))
        np.testing.assert_array_equal(mask, [False, True, True, False])
        # The documented fallback of the plain metric is unchanged.
        assert effective_sample_size(w[1]) == pytest.approx(8.0)

    def test_dead_subfilter_revives_within_one_step(self):
        from repro.core import DistributedFilterConfig, DistributedParticleFilter
        from repro.models import LinearGaussianModel

        model = LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])
        config = DistributedFilterConfig(
            n_particles=8, n_filters=6, topology="ring", n_exchange=1, seed=3,
            self_heal=False, resample_policy="ess", resample_arg=0.5)
        pf = DistributedParticleFilter(model, config)
        truth = model.simulate(4, make_rng("numpy", seed=5))
        pf.step(truth.measurements[0])
        pf.log_weights[2] = -np.inf
        with np.errstate(invalid="ignore"):  # the dead row's -inf - -inf shift
            pf.step(truth.measurements[1])
        assert np.isfinite(pf.log_weights[2]).all()
        pf.step(truth.measurements[2])
        assert np.isfinite(pf.log_weights).any(axis=1).all()
