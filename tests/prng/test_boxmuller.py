"""Tests for the Box-Muller transform."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.prng import box_muller, box_muller_pairs


def test_pairs_shapes_and_independence():
    rng = np.random.default_rng(0)
    u1, u2 = rng.random(50_000), rng.random(50_000)
    z0, z1 = box_muller_pairs(u1, u2)
    assert z0.shape == z1.shape == (50_000,)
    for z in (z0, z1):
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02
    # Cross-correlation of the two outputs should vanish.
    assert abs(np.corrcoef(z0, z1)[0, 1]) < 0.02


def test_pairs_shape_mismatch_raises():
    with pytest.raises(ValueError):
        box_muller_pairs(np.zeros(3), np.zeros(4))


def test_zero_uniform_is_finite():
    z0, z1 = box_muller_pairs(np.array([0.0]), np.array([0.5]))
    assert np.isfinite(z0).all() and np.isfinite(z1).all()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 100, 101])
def test_flat_transform_preserves_length(n):
    u = np.random.default_rng(1).random(n)
    z = box_muller(u)
    assert z.shape == (n,)
    assert np.isfinite(z).all()


def test_flat_transform_is_standard_normal():
    u = np.random.default_rng(2).random(200_000)
    z = box_muller(u)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # Check tails roughly: P(|Z| > 2) ~ 4.55%
    frac = np.mean(np.abs(z) > 2.0)
    assert 0.035 < frac < 0.055


@given(st.integers(min_value=2, max_value=512))
def test_flat_transform_finite_for_any_length(n):
    u = np.linspace(0.0, 1.0, n, endpoint=False)
    z = box_muller(u)
    assert z.shape == (n,)
    assert np.isfinite(z).all()


def test_odd_tail_is_independent_of_the_other_uniforms():
    # The unpaired last uniform maps through the inverse normal CDF: it
    # reuses no other uniform, and a median uniform gives exactly 0.
    u = np.random.default_rng(3).random(7)
    tail = box_muller(u)[-1]
    u[:-1] = np.random.default_rng(4).random(6)
    assert box_muller(u)[-1] == tail
    assert box_muller(np.array([0.5]))[0] == 0.0
    assert np.isfinite(box_muller(np.array([0.0]))).all()
