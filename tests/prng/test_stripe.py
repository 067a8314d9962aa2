"""The in-place striped draw against the per-stream loop it replaced.

A striped draw over ``NumpyRNG`` streams is one ``NumpyRNG`` draw whose
generator fills each stream's row block with ``out=``. It must return what
stitching one draw per stream returned, bit for bit, and stay a single
``NumpyRNG.uniform``/``normal`` call so anything wrapping those two methods
sees every batch.
"""

import numpy as np
import pytest

from repro.backends.worker_rng import FilterStripedRNG
from repro.prng import NumpyRNG, make_rng
from repro.sessions.rng import CohortRNG
from tests.speed import best_block_seconds


def loop_draw(segments, method, shape, dtype=np.float64):
    """The per-stream striped draw, kept verbatim as an oracle."""
    tail = tuple(shape[1:])
    out = np.empty(shape, dtype=np.dtype(dtype))
    ofs = 0
    for gen, n in segments:
        out[ofs:ofs + n] = getattr(gen, method)((n,) + tail, dtype=dtype)
        ofs += n
    return out


def streams(n, seed=40):
    return [make_rng("numpy", seed=seed + i) for i in range(n)]


DRAWS = [("normal", (4,)), ("uniform", ()), ("uniform", (2, 3)), ("normal", (5,)),
         ("uniform", (4,))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("block_rows", [1, 3])
class TestFillMatchesLoop:
    def test_successive_draws(self, dtype, block_rows):
        rng = CohortRNG()
        rng.bind(streams(5), block_rows)
        assert rng._stripe is not None
        twin = [(g, block_rows) for g in streams(5)]
        for method, tail in DRAWS:
            shape = (5 * block_rows,) + tail
            got = getattr(rng, method)(shape, dtype=dtype)
            want = loop_draw(twin, method, shape, dtype)
            assert got.dtype == want.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(got, want)

    def test_scoped_rows_then_full_rows(self, dtype, block_rows):
        rng = CohortRNG()
        rng.bind(streams(4), block_rows)
        twin = streams(4)
        X = block_rows
        rows = np.unique([0, 2 * X, 2 * X + X - 1, 3 * X])  # blocks 0, 2, 3
        counts = np.bincount(rows // X, minlength=4)
        with rng.scoped_rows(rows):
            got = rng.uniform((rows.size, 6), dtype=dtype)
        sub = [(twin[b], int(n)) for b, n in enumerate(counts) if n]
        np.testing.assert_array_equal(got, loop_draw(sub, "uniform", (rows.size, 6), dtype))
        got = rng.normal((4 * X, 2), dtype=dtype)
        full = [(g, X) for g in twin]
        np.testing.assert_array_equal(got, loop_draw(full, "normal", (4 * X, 2), dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_filter_streams_rebind_on_adopt_and_restore(dtype):
    ids = [0, 2, 5]

    def twin_segments(rng):
        return [(rng.stream_of(f), 1) for f in rng.ids]

    a = FilterStripedRNG("numpy", 9, ids)
    b = FilterStripedRNG("numpy", 9, ids)
    np.testing.assert_array_equal(a.normal((3, 4), dtype=dtype),
                                  loop_draw(twin_segments(b), "normal", (3, 4), dtype))
    a.adopt([3], [1])
    b.adopt([3], [1])
    assert a.ids == [0, 2, 3, 5] and a._stripe is not None
    np.testing.assert_array_equal(a.uniform((4, 2), dtype=dtype),
                                  loop_draw(twin_segments(b), "uniform", (4, 2), dtype))
    c = FilterStripedRNG("numpy", 1, [7])
    c.load_state_dict(a.state_dict())
    assert c.ids == a.ids and c._stripe is not None
    np.testing.assert_array_equal(c.normal((4, 3), dtype=dtype),
                                  loop_draw(twin_segments(b), "normal", (4, 3), dtype))


def test_batched_draw_is_one_numpy_draw(monkeypatch):
    # A meter that wraps NumpyRNG.uniform/normal times each batch once.
    calls = []
    for name in ("uniform", "normal"):
        plain = getattr(NumpyRNG, name)

        def counted(self, shape, dtype=np.float64, _plain=plain, _name=name):
            calls.append(_name)
            return _plain(self, shape, dtype)

        monkeypatch.setattr(NumpyRNG, name, counted)
    rng = CohortRNG()
    rng.bind(streams(6), 2)
    rng.normal((12, 3))
    rng.uniform((12,), dtype=np.float32)
    assert calls == ["normal", "uniform"]


def test_other_streams_keep_the_loop():
    rng = CohortRNG()
    rng.bind([make_rng("philox", seed=1), make_rng("numpy", seed=2)], 2)
    assert rng._stripe is None
    twin = [(make_rng("philox", seed=1), 2), (make_rng("numpy", seed=2), 2)]
    np.testing.assert_array_equal(rng.normal((4, 3)), loop_draw(twin, "normal", (4, 3)))


@pytest.mark.parametrize("method", ["uniform", "normal"])
def test_fill_beats_per_stream_loop(method):
    # 230 one-row streams of 32 draws: one session cohort's transition noise.
    rng = CohortRNG()
    rng.bind(streams(230), 1)
    segments = [(g, 1) for g in streams(230, seed=1000)]
    best = best_block_seconds(
        {"loop": lambda k: loop_draw(segments, method, (230, 32)),
         "fill": lambda k: getattr(rng, method)((230, 32))},
        warmup=3, block=20)
    ratio = best["loop"] / best["fill"]
    assert ratio > 1.0, f"the in-place fill ran {ratio:.2f}x the per-stream loop"
