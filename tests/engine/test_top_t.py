"""``top_t`` under sort selection: the leading ``t`` columns of sorted rows.

Each case checks the result against the index gather it replaced (the same
columns taken through ``take_along_axis``), bit for bit, with the dtype and
shape of the population and with no memory shared with the live arrays.
"""

import numpy as np
import pytest

from repro.allocation import apply_width_mask
from repro.core import DistributedFilterConfig, DistributedParticleFilter
from repro.engine import vector_stages
from repro.models import LinearGaussianModel, RobotArmModel


def gathered(state, t):
    """The leading columns through the index gather, kept as an oracle."""
    sel = np.broadcast_to(np.arange(t), (state.log_weights.shape[0], t))
    return (np.take_along_axis(state.states, sel[:, :, None], axis=1),
            np.take_along_axis(state.log_weights, sel, axis=1))


def assert_leading_columns(ctx, state, t):
    want_states, want_logw = gathered(state, t)
    got_states, got_logw = vector_stages.top_t(ctx, state, t)
    F, _, d = state.states.shape
    assert got_states.shape == (F, t, d) and got_logw.shape == (F, t)
    assert got_states.dtype == state.states.dtype
    assert got_logw.dtype == state.log_weights.dtype
    np.testing.assert_array_equal(got_states, want_states)
    np.testing.assert_array_equal(got_logw, want_logw)
    assert not np.shares_memory(got_states, state.states)
    assert not np.shares_memory(got_logw, state.log_weights)
    return got_logw


def sorted_filter(model, seed=0, **kw):
    cfg = dict(n_particles=8, n_filters=6, topology="ring", n_exchange=2, seed=4)
    cfg.update(kw)
    pf = DistributedParticleFilter(model, DistributedFilterConfig(**cfg))
    pf.initialize()
    state = pf._state
    state.log_weights = np.random.default_rng(seed).standard_normal(
        state.log_weights.shape).astype(state.log_weights.dtype)
    return pf, state


@pytest.mark.parametrize("dtype_policy", ["mixed", "float64"])
@pytest.mark.parametrize("t", [1, 3, 8])
def test_dense_rows(dtype_policy, t):
    pf, state = sorted_filter(RobotArmModel(), seed=t, dtype_policy=dtype_policy)
    vector_stages.sort_by_weight(pf._ctx, state)
    assert_leading_columns(pf._ctx, state, t)


def test_ragged_rows_send_their_padding():
    lg = LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])
    pf, state = sorted_filter(lg, allocation="mass", alloc_min_width=2,
                              alloc_hysteresis=0.0)
    state.widths = np.array([8, 2, 8, 3, 8, 8], dtype=np.int64)
    apply_width_mask(state.log_weights, state.widths)
    vector_stages.sort_by_weight(pf._ctx, state)
    logw = assert_leading_columns(pf._ctx, state, 5)
    assert np.isfinite(logw[1, :2]).all() and np.isneginf(logw[1, 2:]).all()
    assert np.isfinite(logw[3, :3]).all() and np.isneginf(logw[3, 3:]).all()


def test_rows_beyond_the_configured_filter_count():
    # A cohort-shaped population: three blocks of the configured six rows
    # stacked under one context whose config still says six.
    pf, state = sorted_filter(RobotArmModel())
    state.states = np.concatenate([state.states] * 3)
    state.log_weights = np.concatenate(
        [state.log_weights, state.log_weights - 1.0, state.log_weights + 1.0])
    vector_stages.sort_by_weight(pf._ctx, state)
    assert state.states.shape[0] == 3 * pf.config.n_filters
    assert_leading_columns(pf._ctx, state, 2)
