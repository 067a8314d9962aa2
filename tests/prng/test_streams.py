"""Tests for RNG front-ends, stream management, xorshift and MTGP banks."""

import numpy as np
import pytest

from repro.prng import (
    MTGPStreams,
    NumpyRNG,
    PhiloxRNG,
    StreamManager,
    XorShift128Plus,
    XorShiftRNG,
    make_rng,
    splitmix64,
)


@pytest.mark.parametrize("kind", ["philox", "xorshift", "numpy"])
class TestFilterRNGContract:
    def test_uniform_shape_dtype_range(self, kind):
        rng = make_rng(kind, seed=11)
        u = rng.uniform((5, 7), dtype=np.float32)
        assert u.shape == (5, 7) and u.dtype == np.float32
        assert (u >= 0).all() and (u < 1).all()

    def test_normal_shape_and_moments(self, kind):
        rng = make_rng(kind, seed=11)
        z = rng.normal((40_000,))
        assert abs(z.mean()) < 0.03 and abs(z.std() - 1.0) < 0.03

    def test_reproducible_given_seed(self, kind):
        a = make_rng(kind, seed=5).uniform((100,))
        b = make_rng(kind, seed=5).uniform((100,))
        assert np.array_equal(a, b)

    def test_seeds_differ(self, kind):
        a = make_rng(kind, seed=5).uniform((100,))
        b = make_rng(kind, seed=6).uniform((100,))
        assert not np.array_equal(a, b)

    def test_spawned_streams_are_independent(self, kind):
        root = make_rng(kind, seed=5)
        a = root.spawn(0).uniform((256,))
        b = root.spawn(1).uniform((256,))
        assert not np.array_equal(a, b)

    def test_empty_request(self, kind):
        rng = make_rng(kind, seed=5)
        assert rng.uniform((0,)).shape == (0,)

    def test_one_sample_normals_are_standard_normal(self, kind):
        # A scalar model draws one normal per step; each must be a full
        # N(0, 1) draw, not a lone uniform paired with a fixed angle.
        rng = make_rng(kind, seed=13)
        z = np.array([rng.normal((1,))[0] for _ in range(2_000)])
        assert abs(z.mean()) < 0.1
        assert 0.85 < z.var() < 1.15

    def test_odd_normal_request_is_even_request_minus_surplus(self, kind):
        odd = make_rng(kind, seed=17).normal((3, 5))
        even = make_rng(kind, seed=17).normal((16,))
        np.testing.assert_array_equal(odd.reshape(-1), even[:15])

    def test_narrowed_uniform_never_rounds_up_to_one(self, kind, monkeypatch):
        # 1 - 2**-30 is a valid float64 draw, but rounds to 1.0 in float32.
        rng = make_rng(kind, seed=5)
        _stub_float64_source(rng, monkeypatch)
        u32 = rng.uniform((3, 4), dtype=np.float32)
        assert u32.dtype == np.float32 and (u32 < 1).all()
        assert (u32 == np.nextafter(np.float32(1), np.float32(0))).all()
        # float64 draws are returned bit for bit.
        assert (rng.uniform((3, 4)) == NEAR_ONE).all()

    def test_cohort_striping_keeps_narrowed_uniforms_below_one(self, kind, monkeypatch):
        from repro.sessions.rng import CohortRNG

        gens = [make_rng(kind, seed=s) for s in (1, 2)]
        for g in gens:
            _stub_float64_source(g, monkeypatch)
        cohort = CohortRNG()
        cohort.bind(gens, block_rows=2)
        u32 = cohort.uniform((4, 5), dtype=np.float32)
        assert (u32 < 1).all()


NEAR_ONE = 1.0 - 2.0 ** -30


def _stub_float64_source(rng, monkeypatch):
    """Make *rng*'s underlying float64 generator return only ``NEAR_ONE``."""
    if isinstance(rng, NumpyRNG):
        class _Gen:
            def random(self, size):
                return np.full(size, NEAR_ONE)

        monkeypatch.setattr(rng, "_g", _Gen())
    elif isinstance(rng, PhiloxRNG):
        monkeypatch.setattr(rng._philox, "uniform",
                            lambda start, n, stream=0, dtype=np.float64:
                            np.full(n, NEAR_ONE))
    else:
        assert isinstance(rng, XorShiftRNG)
        monkeypatch.setattr(rng._bank, "uniform",
                            lambda n_steps=1, dtype=np.float64:
                            np.full((n_steps, rng._n_lanes), NEAR_ONE))


def test_make_rng_unknown_kind():
    with pytest.raises(ValueError, match="unknown rng kind"):
        make_rng("quantum")


def test_philox_sequential_calls_advance():
    rng = PhiloxRNG(seed=1)
    a, b = rng.uniform((64,)), rng.uniform((64,))
    assert not np.array_equal(a, b)


def test_splitmix64_distinct_and_deterministic():
    a = splitmix64(123, 1000)
    assert len(set(a.tolist())) == 1000
    assert np.array_equal(a, splitmix64(123, 1000))


def test_xorshift_lanes_uncorrelated():
    bank = XorShift128Plus(seed=3, n_lanes=64)
    u = bank.uniform(2000)  # (2000, 64)
    c = np.corrcoef(u.T)
    off_diag = c[~np.eye(64, dtype=bool)]
    assert np.abs(off_diag).max() < 0.12


def test_xorshift_rng_spans_lane_rows():
    rng = XorShiftRNG(seed=3, n_lanes=8)
    u = rng.uniform((20,))  # needs 3 rows of 8 lanes
    assert u.shape == (20,)
    assert len(np.unique(u)) == 20


def test_mtgp_streams_shapes_and_independence():
    bank = MTGPStreams(seed=1, n_groups=4)
    u = bank.uniform(100)
    assert u.shape == (4, 100)
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(u[i], u[j])


def test_mtgp_normals():
    bank = MTGPStreams(seed=1, n_groups=2)
    z = bank.normal(20_000)
    assert abs(z.mean()) < 0.05 and abs(z.std() - 1.0) < 0.05


def test_stream_manager_reproducible_and_bounded():
    mgr = StreamManager(seed=9, n_streams=4, kind="philox")
    a = mgr.stream(2).uniform((16,))
    b = StreamManager(seed=9, n_streams=4, kind="philox").stream(2).uniform((16,))
    assert np.array_equal(a, b)
    with pytest.raises(IndexError):
        mgr.stream(4)
    assert len(mgr.all_streams()) == 4


def test_numpy_rng_normal_override():
    z = NumpyRNG(seed=0).normal((10,), dtype=np.float32)
    assert z.dtype == np.float32
