"""Distributional and shape tests across all resamplers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.registry import _RESAMPLERS, make_resampler
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
from repro.resampling.rws import (
    ROW_SEARCH_MIN_DRAWS,
    rws_cdf,
    search_shifted_cdf,
    shifted_key_bounds,
)
from repro.utils.arrays import normalize_weights
from tests.speed import best_block_seconds

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
    """The flat RWS formulation, written out as a bitwise oracle: each row's
    prefix sum divided by its own last entry (the CDF clamped at 1.0; rows
    without a finite positive total go uniform), rows and keys shifted into
    [r, r+1], keys held below r + 1, one flattened ``searchsorted``,
    ``np.repeat`` row bases."""
    w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    F, m = w.shape
    c = np.cumsum(w, axis=1)
    total = c[:, -1:].copy()
    bad = ~np.isfinite(total[:, 0]) | (total[:, 0] <= 0)
    c[bad] = np.arange(1, m + 1)
    total[bad] = m
    c = c / total
    offsets = np.arange(F, dtype=np.float64)[:, None]
    flat_cdf = (c + offsets).reshape(-1)
    keys = np.minimum(u + offsets, np.nextafter(offsets + 1.0, 0.0))
    pos = np.searchsorted(flat_cdf, keys.reshape(-1), side="right")
    idx = (pos - np.repeat(np.arange(F) * m, u.shape[1])).astype(np.int64)
    return idx.reshape(F, -1)


def _assert_rws_answers(weights, u, idx):
    """Every key lands in its own row on a positive-weight particle (rows
    with no usable total excepted: they draw uniformly), and each row's
    indices are a non-decreasing function of its keys, so equal keys have
    one answer."""
    w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    assert ((idx >= 0) & (idx < w.shape[1])).all()
    total = w.sum(axis=1)
    usable = np.isfinite(total) & (total > 0)
    drawn = np.take_along_axis(w, idx, axis=1)
    assert (drawn[usable] > 0).all(), "a zero-weight particle was drawn"
    for f in range(u.shape[0]):
        order = np.argsort(u[f], kind="stable")
        assert (np.diff(idx[f][order]) >= 0).all(), "one key, two answers"


def _row_search(weights, u):
    """Row-local indices from :func:`search_shifted_cdf` with no crossover,
    on the shifted CDF and keys ``rws_indices_batch`` builds."""
    F, m = weights.shape
    c = rws_cdf(weights)
    offsets = np.arange(F, dtype=np.float64)[:, None]
    c += offsets
    keys = np.minimum(u + offsets, shifted_key_bounds(F))
    pos = search_shifted_cdf(c, keys, min_draws=0)
    return pos - np.arange(F)[:, None] * m


@pytest.mark.parametrize("m", [1, 2, 3, 5, 64, 66, 96])
def test_row_search_matches_flat_oracle_across_pool_sizes(m):
    # Pool sizes that are and are not powers of two, a one-particle pool,
    # zero-weight runs, and the extreme uniforms 0 and one ulp below 1.
    rng = np.random.default_rng(m)
    w = rng.random((40, m)) ** 2
    w[::3, ::2] = 0.0
    u = rng.random((40, 64))
    u[:, :4] = 0.0
    u[:, 4:8] = np.nextafter(1.0, 0.0)
    want = _rws_flat_oracle(w, u)
    np.testing.assert_array_equal(_row_search(w, u), want)
    np.testing.assert_array_equal(rws_indices_batch(w, u), want)
    _assert_rws_answers(w, u, want)


def test_prefix_sum_above_one_gives_each_key_one_positive_weight_answer():
    # Row 1's normalized prefix sum rounds above 1.0 before its last
    # (zero-weight) column. Unclamped, its keys one ulp below 1 had two
    # upper bounds in the flat CDF, and the flat search returned [3, 4, 4]
    # for three equal keys, 4 being the zero-weight particle. The clamped
    # CDF gives each key one answer, on a positive weight.
    w = np.array([[0.266878075672634, 0.36342646203797385, 0.03989158388312517, 0.0, 0.0],
                  [0.06668708876770282, 0.19906725894402133, 0.1733196652099375,
                   0.01657663617785579, 0.0]])
    near_one = np.nextafter(1.0, 0.0)
    u = np.array([[0.4661739945286675, near_one, 0.8975541965943097], [near_one] * 3])
    want = _rws_flat_oracle(w, u)
    assert want[1].tolist() == [3, 3, 3]
    assert want[0, 1] == 2
    _assert_rws_answers(w, u, want)
    np.testing.assert_array_equal(_row_search(w, u), want)
    np.testing.assert_array_equal(rws_indices_batch(w, u), want)
    for f in range(2):  # alone, each row keeps its answers
        np.testing.assert_array_equal(rws_indices(w[f], u[f]), want[f])


def test_cdf_ending_below_one_never_draws_trailing_zero_weights():
    # A prefix sum of normalized weights that rounds *below* 1.0 before a
    # zero-weight tail used to leave that tail the gap up to the forced
    # 1.0 at the end of the row; keys in the gap drew a zero-weight particle.
    rng = np.random.default_rng(12)
    hits = 0
    for _ in range(200):
        w = rng.random((1, 7))
        w[0, 4:] = 0.0
        c = np.cumsum(w / w.sum())
        if c[3] >= 1.0:
            continue
        hits += 1
        u = np.array([[c[3], np.nextafter(1.0, 0.0)]])
        for idx in (rws_indices_batch(w, u), _row_search(w, u),
                    rws_indices(w[0], u[0])[None, :]):
            assert idx.tolist() == [[3, 3]]
    assert hits > 0


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
    u[rng.random((n_filters, k)) < 0.05] = 0.0
    weights_before = w.copy()
    got = rws_indices_batch(w, u)  # row or flat search, by the crossover
    want = _rws_flat_oracle(w, u)
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    # The lock-step row search itself, forced below its crossover.
    np.testing.assert_array_equal(_row_search(w, u), want)
    _assert_rws_answers(w, u, got)
    np.testing.assert_array_equal(w, weights_before)  # input left untouched
    # normalize_weights itself (the ESS policy's input) matches its oracle
    # along either axis, bad rows included.
    for axis in (0, 1, -1):
        np.testing.assert_array_equal(normalize_weights(w, axis=axis),
                                      _normalize_oracle(w, axis=axis))


# Metropolis is left out: after a finite number of steps B its chains have
# not mixed, so its offspring counts are biased (Murray, Lee & Jacob,
# arXiv:1301.4019).
@pytest.mark.parametrize("name", ["rws", "vose", "systematic", "stratified",
                                  "multinomial", "residual"])
def test_batch_offspring_counts_are_unbiased(name):
    # E[offspring_i] = m * w_i for each row, on the batch path at a shape
    # above the row-search crossover. Even and odd rows carry different
    # weights, so rows searched against a neighbour's CDF would show.
    F, m = 512, 64
    assert F * m >= ROW_SEARCH_MIN_DRAWS
    w_even = np.array([0.02, 0.08, 0.0, 0.2, 0.7, 0.0, 0.0])
    w_odd = np.array([0.3, 0.0, 0.1, 0.1, 0.05, 0.25, 0.2])
    w = np.tile(np.stack([w_even, w_odd]), (F // 2, 1))
    idx = make_resampler(name).resample_batch(w, m, make_rng("numpy", seed=21))
    assert idx.shape == (F, m)
    n_draws = (F // 2) * m
    for rows, p in ((idx[0::2], w_even), (idx[1::2], w_odd)):
        counts = np.bincount(rows.reshape(-1), minlength=p.size)
        bound = 5.0 * np.sqrt(n_draws * p * (1 - p)) + 1.0
        assert (np.abs(counts - n_draws * p) <= bound).all(), (counts, n_draws * p)
        assert (counts[p == 0] == 0).all()


@pytest.mark.parametrize("name", sorted(_RESAMPLERS))
def test_batch_rejects_negative_weights(name):
    # The batch path checks its weights before drawing, like ``resample``:
    # a negative weight raises and the generator has not moved.
    rng = make_rng("numpy", seed=4)
    before = rng.uniform((4,))
    rng = make_rng("numpy", seed=4)
    with pytest.raises(ValueError, match="non-negative"):
        make_resampler(name).resample_batch(np.array([[2.0, -1.0, 1.0]]), 6, rng)
    np.testing.assert_array_equal(rng.uniform((4,)), before)


def test_row_search_beats_flat_search():
    # (256, 64): the arm-track round's resample, 256 sub-filters drawing 64
    # ancestors each from a 64-particle pool.
    rng = np.random.default_rng(5)
    F, m = 256, 64
    c = rws_cdf(rng.random((F, m)))
    offsets = np.arange(F, dtype=np.float64)[:, None]
    c += offsets
    keys = rng.random((F, m)) + offsets
    best = best_block_seconds(
        {"flat": lambda k: search_shifted_cdf(c, keys, min_draws=c.size * 10),
         "row": lambda k: search_shifted_cdf(c, keys, min_draws=0)},
        warmup=3, block=20)
    ratio = best["flat"] / best["row"]
    assert ratio > 1.0, f"the row search ran {ratio:.2f}x the flat search"
