"""Distributional and shape tests across all resamplers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.prng import make_rng
from repro.resampling import (
    MultinomialResampler,
    ResidualResampler,
    RouletteWheelResampler,
    StratifiedResampler,
    SystematicResampler,
    VoseAliasResampler,
    resample_counts,
    rws_indices,
    rws_indices_batch,
)
from repro.utils.arrays import normalize_weights

ALL = [
    MultinomialResampler(),
    RouletteWheelResampler(),
    VoseAliasResampler(),
    VoseAliasResampler(parallel_build=True),
    SystematicResampler(),
    StratifiedResampler(),
    ResidualResampler(),
]


@pytest.mark.parametrize("r", ALL, ids=lambda r: f"{r.name}{'_par' if getattr(r, 'parallel_build', False) else ''}")
class TestResamplerContract:
    def test_output_shape_and_range(self, r):
        w = np.random.default_rng(0).random(33) + 1e-9
        idx = r.resample(w, 77, make_rng("numpy", seed=0))
        assert idx.shape == (77,)
        assert idx.dtype == np.int64
        assert (idx >= 0).all() and (idx < 33).all()

    def test_distribution_matches_weights(self, r):
        w = np.array([0.02, 0.08, 0.2, 0.7])
        idx = r.resample(w, 150_000, make_rng("numpy", seed=1))
        freq = np.bincount(idx, minlength=4) / idx.size
        np.testing.assert_allclose(freq, w, atol=0.012)

    def test_zero_weight_never_selected(self, r):
        w = np.array([0.0, 1.0, 0.0, 2.0, 0.0])
        idx = r.resample(w, 20_000, make_rng("numpy", seed=2))
        assert not np.isin(idx, [0, 2, 4]).any()

    def test_point_mass(self, r):
        w = np.zeros(16)
        w[5] = 1.0
        idx = r.resample(w, 1000, make_rng("numpy", seed=3))
        assert (idx == 5).all()

    def test_unnormalized_ok(self, r):
        w = np.array([1.0, 3.0])
        idx = r.resample(w, 80_000, make_rng("numpy", seed=4))
        assert abs(np.mean(idx == 1) - 0.75) < 0.01

    def test_batch_shape(self, r):
        w = np.random.default_rng(5).random((6, 16)) + 1e-9
        idx = r.resample_batch(w, 24, make_rng("numpy", seed=5))
        assert idx.shape == (6, 24)
        assert (idx >= 0).all() and (idx < 16).all()

    def test_invalid_inputs(self, r):
        rng = make_rng("numpy", seed=0)
        with pytest.raises((ValueError, TypeError)):
            r.resample(np.array([-1.0, 2.0]), 4, rng)
        with pytest.raises((ValueError, TypeError)):
            r.resample(np.array([1.0, 2.0]), 0, rng)


def test_systematic_counts_are_minimum_variance():
    w = np.array([0.1, 0.4, 0.25, 0.25])
    n = 1000
    idx = SystematicResampler().resample(w, n, make_rng("numpy", seed=6))
    counts = resample_counts(idx, 4)
    expected = n * w
    assert np.all(counts >= np.floor(expected))
    assert np.all(counts <= np.ceil(expected))


def test_residual_keeps_integer_parts():
    w = np.array([0.5, 0.3, 0.2])
    idx = ResidualResampler().resample(w, 10, make_rng("numpy", seed=7))
    counts = resample_counts(idx, 3)
    assert counts[0] >= 5 and counts[1] >= 3 and counts[2] >= 2
    assert counts.sum() == 10


def test_rws_indices_direct():
    w = np.array([0.25, 0.25, 0.5])
    u = np.array([0.0, 0.24, 0.26, 0.49, 0.51, 0.99])
    np.testing.assert_array_equal(rws_indices(w, u), [0, 0, 1, 1, 2, 2])


def test_rws_batch_matches_single_rows():
    rng = np.random.default_rng(8)
    w = rng.random((7, 9)) + 1e-9
    u = rng.random((7, 13))
    batch = rws_indices_batch(w, u)
    for f in range(7):
        np.testing.assert_array_equal(batch[f], rws_indices(w[f], u[f]))


def test_rws_batch_row_mismatch():
    with pytest.raises(ValueError):
        rws_indices_batch(np.ones((2, 4)), np.ones((3, 4)))


def test_rws_batch_boundary_uniform():
    # u extremely close to 1 must clip into range.
    w = np.ones((2, 4))
    u = np.full((2, 3), np.nextafter(1.0, 0.0))
    idx = rws_indices_batch(w, u)
    assert (idx == 3).all()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**31),
)
def test_rws_batch_property(n_filters, m, seed):
    rng = np.random.default_rng(seed)
    w = rng.random((n_filters, m)) + 1e-9
    u = rng.random((n_filters, 2 * m))
    idx = rws_indices_batch(w, u)
    assert idx.shape == (n_filters, 2 * m)
    assert (idx >= 0).all() and (idx < m).all()


def _normalize_oracle(w, axis=-1):
    """The ``np.where`` form ``normalize_weights`` replaced, kept verbatim."""
    w = np.asarray(w, dtype=np.float64)
    total = w.sum(axis=axis, keepdims=True)
    bad = ~np.isfinite(total) | (total <= 0)
    n = w.shape[axis]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(bad, 1.0 / n, w / np.where(bad, 1.0, total))


def _rws_flat_oracle(weights, u):
    """The flat RWS formulation the in-place kernel replaced, kept verbatim
    as a bitwise oracle: normalized CDF rows shifted into (r, r+1], one
    flattened ``searchsorted``, ``np.repeat`` row bases."""
    w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    F, m = w.shape
    c = np.cumsum(_normalize_oracle(w, axis=1), axis=1)
    c[:, -1] = 1.0
    offsets = np.arange(F, dtype=np.float64)[:, None]
    flat_cdf = (c + offsets).reshape(-1)
    flat_u = (u + offsets).reshape(-1)
    pos = np.searchsorted(flat_cdf, flat_u, side="right")
    idx = (pos - np.repeat(np.arange(F) * m, u.shape[1])).astype(np.int64)
    np.clip(idx, 0, m - 1, out=idx)
    return idx.reshape(F, -1)


@settings(max_examples=150, deadline=None)
@given(
    n_filters=st.integers(min_value=1, max_value=40),
    m=st.integers(min_value=1, max_value=70),
    k=st.integers(min_value=0, max_value=80),
    seed=st.integers(min_value=0, max_value=2**31),
    kinds=st.lists(st.sampled_from(["plain", "zero", "nan", "inf", "sparse"]),
                   min_size=40, max_size=40),
)
def test_rws_batch_bitwise_matches_flat_oracle(n_filters, m, k, seed, kinds):
    rng = np.random.default_rng(seed)
    w = rng.random((n_filters, m)) ** 3
    for f, kind in enumerate(kinds[:n_filters]):
        if kind == "zero":
            w[f] = 0.0
        elif kind == "nan":
            w[f, rng.integers(m)] = np.nan
        elif kind == "inf":
            w[f, rng.integers(m)] = np.inf
        elif kind == "sparse":
            w[f, rng.random(m) < 0.7] = 0.0
    u = rng.random((n_filters, k))
    u[rng.random((n_filters, k)) < 0.2] = np.nextafter(1.0, 0.0)
    weights_before = w.copy()
    got = rws_indices_batch(w, u)
    want = _rws_flat_oracle(w, u)
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(w, weights_before)  # input left untouched
    # normalize_weights itself (the ESS policy's input) matches its oracle
    # along either axis, bad rows included.
    for axis in (0, 1, -1):
        np.testing.assert_array_equal(normalize_weights(w, axis=axis),
                                      _normalize_oracle(w, axis=axis))
