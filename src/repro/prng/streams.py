"""RNG front-ends used by the filters, plus per-sub-filter stream management.

Every filter in :mod:`repro.core` draws randomness through the small
:class:`FilterRNG` interface so the generator is swappable: the from-scratch
Philox/xorshift/MTGP generators reproduce the paper's device-side RNG
structure, while :class:`NumpyRNG` offers a fast vendor-library path (the
moral equivalent of linking cuRAND).
"""

from __future__ import annotations

import abc
import math
import os
import threading
import weakref

import numpy as np

from repro.prng.boxmuller import box_muller
from repro.prng.philox import Philox4x32
from repro.prng.xorshift import XorShift128Plus
from repro.utils.validation import check_positive_int


def _narrow_uniform(u: np.ndarray, dtype) -> np.ndarray:
    """Cast float64 uniforms on [0, 1) to *dtype*; values that round up to 1
    (float32: any >= 1 - 2**-25) clamp to the largest float below 1."""
    out = u.astype(dtype, copy=False)
    if out is not u:  # float64 draws stay bit for bit
        np.minimum(out, np.nextafter(out.dtype.type(1), out.dtype.type(0)), out=out)
    return out


class FilterRNG(abc.ABC):
    """Interface for the randomness consumed by a particle filter."""

    @abc.abstractmethod
    def uniform(self, shape, dtype=np.float64) -> np.ndarray:
        """Array of the given shape, uniform on [0, 1)."""

    def normal(self, shape, dtype=np.float64) -> np.ndarray:
        """Array of the given shape, standard normal (Box-Muller default).

        Draws ``2 * ceil(n / 2)`` uniforms so every normal comes from a full
        Box-Muller pair; an odd request drops the surplus normal.
        """
        n = int(np.prod(shape)) if np.ndim(shape) else int(shape)
        if n == 0:
            return np.empty(shape, dtype=dtype)
        u = self.uniform((n + n % 2,), dtype=np.float64)
        return box_muller(u)[:n].reshape(shape).astype(dtype, copy=False)

    @abc.abstractmethod
    def spawn(self, stream: int) -> "FilterRNG":
        """An independent generator for sub-stream *stream*."""

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the generator's internal state.

        Restoring it with :meth:`load_state_dict` makes every subsequent
        draw bit-identical to a generator that was never interrupted —
        the contract the checkpoint/resume layer relies on.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support state capture")

    def load_state_dict(self, d: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state restore")

    def _check_state_kind(self, d: dict, kind: str) -> None:
        got = d.get("kind")
        if got != kind:
            raise ValueError(
                f"RNG state kind mismatch: checkpoint has {got!r}, "
                f"this generator is {kind!r}")


class PhiloxRNG(FilterRNG):
    """Counter-based RNG: stateless bijection + a running counter."""

    def __init__(self, seed: int, stream: int = 0):
        self._philox = Philox4x32(key=seed)
        self._seed = int(seed)
        self._stream = int(stream)
        self._counter = 0

    def uniform(self, shape, dtype=np.float64) -> np.ndarray:
        n = int(np.prod(shape)) if np.ndim(shape) else int(shape)
        if n == 0:
            return np.empty(shape, dtype=dtype)
        out = self._philox.uniform(self._counter, n, stream=self._stream, dtype=np.float64)
        self._counter += (n + 3) // 4
        return _narrow_uniform(out.reshape(shape), dtype)

    def spawn(self, stream: int) -> "PhiloxRNG":
        # Streams are separated in the key lanes, so any (seed, stream) pair
        # indexes a disjoint random function.
        return PhiloxRNG(self._seed, stream=self._stream * 0x10001 + stream + 1)

    def state_dict(self) -> dict:
        # The bijection is stateless: (seed, stream, counter) is the state.
        return {"kind": "philox", "seed": self._seed, "stream": self._stream,
                "counter": self._counter}

    def load_state_dict(self, d: dict) -> None:
        self._check_state_kind(d, "philox")
        seed = int(d["seed"])
        if seed != self._seed:
            self._seed = seed
            self._philox = Philox4x32(key=seed)
        self._stream = int(d["stream"])
        self._counter = int(d["counter"])


class XorShiftRNG(FilterRNG):
    """Per-lane xorshift128+ bank; mirrors per-thread GPU generators."""

    def __init__(self, seed: int, n_lanes: int = 4096, stream: int = 0):
        self._seed = int(seed)
        self._n_lanes = check_positive_int(n_lanes, "n_lanes")
        self._stream = int(stream)
        self._bank = XorShift128Plus(seed ^ (stream * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF), n_lanes)

    def uniform(self, shape, dtype=np.float64) -> np.ndarray:
        n = int(np.prod(shape)) if np.ndim(shape) else int(shape)
        if n == 0:
            return np.empty(shape, dtype=dtype)
        steps = math.ceil(n / self._n_lanes)
        vals = self._bank.uniform(steps, dtype=np.float64).reshape(-1)[:n]
        return _narrow_uniform(vals.reshape(shape), dtype)

    def spawn(self, stream: int) -> "XorShiftRNG":
        return XorShiftRNG(self._seed, self._n_lanes, stream=self._stream * 0x10001 + stream + 1)

    def state_dict(self) -> dict:
        return {"kind": "xorshift", "seed": self._seed,
                "n_lanes": self._n_lanes, "stream": self._stream,
                "s0": self._bank.s0.tolist(), "s1": self._bank.s1.tolist()}

    def load_state_dict(self, d: dict) -> None:
        self._check_state_kind(d, "xorshift")
        n_lanes = int(d["n_lanes"])
        if n_lanes != self._n_lanes:
            raise ValueError(
                f"xorshift lane count mismatch: checkpoint has {n_lanes}, "
                f"this generator has {self._n_lanes}")
        self._seed = int(d["seed"])
        self._stream = int(d["stream"])
        self._bank.s0 = np.asarray(d["s0"], dtype=np.uint64)
        self._bank.s1 = np.asarray(d["s1"], dtype=np.uint64)


def _standard_normal(gen, shape, dtype) -> np.ndarray:
    # float32 normals come from NumPy's float32 ziggurat: no float64 draw
    # and no cast pass. Other dtypes draw float64 and cast.
    if np.dtype(dtype) == np.float32:
        return gen.standard_normal(size=shape, dtype=np.float32)
    return gen.standard_normal(size=shape).astype(dtype, copy=False)


#: The smallest normal draw a :class:`Lookahead` runs ahead. Smaller draws
#: run on the round's thread: the helper thread's start, its share of the GIL
#: and the state checks cost the round more than the draw it takes away
#: (2-vCPU Xeon, NumPy 2.4.6, arm round at m = 64, float32 noise, armed
#: against unarmed step median in alternating blocks: 9 K values +0.2 to
#: +0.3 ms, 28 K +0.07 to +0.27 ms, 37 K -0.03 to +0.03 ms, 46 K -0.17 to
#: -0.21 ms, 147 K -1.6 to -1.8 ms).
LOOKAHEAD_MIN_DRAWS = 40_960


class _Speculation:
    """One ``normal`` draw made ahead from a cloned generator."""

    __slots__ = ("key", "start", "end", "out", "thread")

    def __init__(self, key):
        self.key = key  # (shape, dtype) of the draw
        self.start = self.end = self.out = self.thread = None


#: every armed lookahead in this process, for the at-fork hook below.
_LOOKAHEADS: "weakref.WeakSet[Lookahead]" = weakref.WeakSet()


class Lookahead:
    """A :class:`NumpyRNG`'s one-deep lookahead for its large normal draws.

    A NumPy draw is a pure function of (generator state, shape, dtype). So
    after a ``normal`` draw of at least ``LOOKAHEAD_MIN_DRAWS`` values, a helper
    thread draws the next one from a clone whose state is the live state
    advanced by the 64-bit words the stream's ``uniform`` calls consumed
    between its last two such draws; NumPy fills the array without the GIL.
    The next ``normal`` call of the same shape and dtype adopts the values,
    and the clone's end state, only if the live state equals the clone's
    start: every output and every :meth:`NumpyRNG.state_dict` stays bit for
    bit what the stream draws unarmed. It speculates once it knows the gap
    since the last draw of the same shape and dtype, and skips one draw
    after that gap changes; any other draw in a gap, or direct ``_gen``
    access, makes the gap unknown.
    ``hits``/``misses`` count adopted and discarded speculations; with a
    tracer, traced draws also count them as
    ``prng.lookahead_hits``/``prng.lookahead_misses``.
    """

    def __init__(self, gen: np.random.Generator, tracer=None):
        self.gen = gen
        self.tracer = tracer
        self.clone = np.random.Generator(type(gen.bit_generator)())
        self.hits = self.misses = 0
        self.gap = None  # words drawn since the last large normal; None: unknown
        self._last = None  # (key, gap) of the last large normal
        self._pending: _Speculation | None = None
        _LOOKAHEADS.add(self)

    def normal(self, shape, dtype) -> np.ndarray:
        out = None if self._pending is None else self._adopt(shape, dtype)
        if out is None:
            out = _standard_normal(self.gen, shape, dtype)
        gap, self.gap = self.gap, None
        if out.size < LOOKAHEAD_MIN_DRAWS:
            self._last = None
            return out
        key, last = (out.shape, out.dtype), self._last
        if last is None or last[0] != key:
            gap = None  # words since a draw of another shape: no gap to repeat
        elif gap is not None and last[1] in (None, gap):
            self._launch(key, gap)
        self._last, self.gap = (key, gap), 0
        return out

    def forget(self) -> None:
        """Make the gap unknown: the generator may draw past the count."""
        self.gap = self._last = None

    def discard(self) -> None:
        """Wait out and drop the speculation in flight (a miss)."""
        spec, self._pending = self._pending, None
        if spec is not None:
            spec.thread.join()
            self._tally("misses")

    def _tally(self, name: str) -> None:
        setattr(self, name, getattr(self, name) + 1)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.count(f"prng.lookahead_{name}")

    def _launch(self, key, gap: int) -> None:
        spec = self._pending = _Speculation(key)
        spec.thread = threading.Thread(target=self._draw_ahead, daemon=True,
                                       args=(spec, self.gen.bit_generator.state, gap),
                                       name="repro-rng-lookahead")
        spec.thread.start()

    def _draw_ahead(self, spec: _Speculation, live: dict, gap: int) -> None:
        bits = self.clone.bit_generator
        bits.state = live
        bits.advance(gap)
        # advance() drops the buffered half of a 64-bit word, which uniform
        # draws never touch and float32 normals use.
        start = bits.state
        start["has_uint32"], start["uinteger"] = live["has_uint32"], live["uinteger"]
        bits.state = start
        spec.start = start
        spec.out = _standard_normal(self.clone, *spec.key)
        spec.end = bits.state

    def _adopt(self, shape, dtype) -> np.ndarray | None:
        spec, self._pending = self._pending, None
        spec.thread.join()
        key = (tuple(shape) if np.ndim(shape) else (int(shape),), np.dtype(dtype))
        if spec.key == key and spec.out is not None and self.gen.bit_generator.state == spec.start:
            self.gen.bit_generator.state = spec.end
            self._tally("hits")
            return spec.out
        self._tally("misses")
        return None


def _discard_all_lookaheads() -> None:
    # A forked child must never wait on a helper thread it did not start.
    for lookahead in list(_LOOKAHEADS):
        lookahead.discard()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_discard_all_lookaheads)


class NumpyRNG(FilterRNG):
    """Vendor-library path: NumPy's PCG64 ``Generator``."""

    #: the armed :class:`Lookahead`, or ``None``.
    lookahead: Lookahead | None = None

    def __init__(self, seed: int, stream: int = 0):
        self._seed = int(seed)
        self._stream = int(stream)
        self._g = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))

    @property
    def _gen(self):
        # Whoever holds the generator can draw past the lookahead's count.
        if self.lookahead is not None:
            self.lookahead.forget()
        return self._g

    def uniform(self, shape, dtype=np.float64) -> np.ndarray:
        u = self._g.random(size=shape)
        lookahead = self.lookahead
        if lookahead is not None and lookahead.gap is not None:
            lookahead.gap += u.size  # one 64-bit word per float64
        # The resampler draws float64 per row on every round: skip the call.
        return u if dtype is np.float64 else _narrow_uniform(u, dtype)

    def normal(self, shape, dtype=np.float64) -> np.ndarray:
        if self.lookahead is not None:
            return self.lookahead.normal(shape, dtype)
        return _standard_normal(self._g, shape, dtype)

    def arm_lookahead(self, tracer=None) -> Lookahead:
        """Run each ``normal`` draw of at least ``LOOKAHEAD_MIN_DRAWS`` values
        ahead on a helper thread (see :class:`Lookahead`); returns the
        lookahead."""
        if self.lookahead is None:
            self.lookahead = Lookahead(self._g, tracer)
        return self.lookahead

    def spawn(self, stream: int) -> "NumpyRNG":
        return NumpyRNG(self._seed, stream=self._stream * 0x10001 + stream + 1)

    def state_dict(self) -> dict:
        # bit_generator.state is a nested dict of (big) ints — JSON-clean.
        # A speculation never touches the live generator.
        return {"kind": "numpy", "seed": self._seed, "stream": self._stream,
                "bit_generator": self._g.bit_generator.state}

    def load_state_dict(self, d: dict) -> None:
        self._check_state_kind(d, "numpy")
        if self.lookahead is not None:
            self.lookahead.discard()
            self.lookahead.forget()
        self._seed = int(d["seed"])
        self._stream = int(d["stream"])
        self._g.bit_generator.state = d["bit_generator"]


class _RowStripe:
    """Generator stand-in that fills each stream's row block in place.

    Stream ``j`` owns rows ``[lo_j, hi_j)`` of every draw and fills them
    with its own ``Generator`` through ``out=``: the same values, in the
    same stream order, as a ``(hi_j - lo_j,) + tail`` draw of that stream
    at the same dtype (float32 normals included), but with no per-stream
    allocation, copy or Python-level RNG call.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks):
        self._blocks = blocks  # (np.random.Generator, lo, hi) in row order

    def random(self, size):
        out = np.empty(size)
        for gen, lo, hi in self._blocks:
            gen.random(out=out[lo:hi])
        return out

    def standard_normal(self, size, dtype=np.float64):
        out = np.empty(size, dtype=dtype)
        for gen, lo, hi in self._blocks:
            gen.standard_normal(out=out[lo:hi], dtype=dtype)
        return out


class _EqualRowStripe:
    """A :class:`_RowStripe` whose streams each own ``rows`` rows, in order.

    It fills the streams' blocks by iterating a ``(n_streams, rows, ...)``
    reshape of the draw instead of slicing the draw once per stream.
    """

    __slots__ = ("_gens", "_rows")

    def __init__(self, gens, rows: int):
        self._gens = list(gens)  # np.random.Generator per stream, in row order
        self._rows = rows

    def _blocks(self, out):
        return zip(self._gens, out.reshape((len(self._gens), self._rows) + out.shape[1:]))

    def random(self, size):
        out = np.empty(size)
        for gen, block in self._blocks(out):
            gen.random(out=block)
        return out

    def standard_normal(self, size, dtype=np.float64):
        out = np.empty(size, dtype=dtype)
        for gen, block in self._blocks(out):
            gen.standard_normal(out=block, dtype=dtype)
        return out


class _StripedNumpyRNG(NumpyRNG):
    """A :class:`NumpyRNG` over a :class:`_RowStripe` or :class:`_EqualRowStripe`.

    ``uniform``/``normal`` are inherited, so a striped draw is one
    ``NumpyRNG`` draw: its dtype cast and uniform narrowing run once over
    the whole array (both are elementwise), and anything that wraps those
    two methods sees one call per batch.
    """

    def __init__(self, stripe: _RowStripe):
        self._g = stripe


def numpy_generator(rng) -> np.random.Generator | None:
    """*rng*'s NumPy ``Generator`` when *rng* is a plain :class:`NumpyRNG`
    over one, else ``None``: the streams an in-place striped draw can fill."""
    if type(rng) is NumpyRNG and isinstance(rng._gen, np.random.Generator):
        return rng._gen
    return None


def stripe_numpy_rows(segments) -> NumpyRNG | None:
    """One :class:`NumpyRNG` drawing every ``(stream, n_rows)`` segment's
    rows in place, in row order; ``None`` unless every stream is a plain
    :class:`NumpyRNG` over a NumPy ``Generator``."""
    blocks, lo = [], 0
    for rng, n in segments:
        gen = numpy_generator(rng)
        if gen is None:
            return None
        blocks.append((gen, lo, lo + n))
        lo += n
    return _StripedNumpyRNG(_RowStripe(blocks))


def stripe_generators(gens, block_rows: int) -> NumpyRNG:
    """One :class:`NumpyRNG` whose ``j``-th NumPy ``Generator`` (see
    :func:`numpy_generator`) fills rows ``[j * block_rows, (j + 1) *
    block_rows)`` of every draw in place."""
    return _StripedNumpyRNG(_EqualRowStripe(gens, block_rows))


_RNG_KINDS = {"philox": PhiloxRNG, "xorshift": XorShiftRNG, "numpy": NumpyRNG}


def make_rng(kind: str = "numpy", seed: int = 0, **kwargs) -> FilterRNG:
    """Factory for :class:`FilterRNG` instances by name."""
    try:
        cls = _RNG_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown rng kind {kind!r}; choose from {sorted(_RNG_KINDS)}") from None
    return cls(seed, **kwargs)


class StreamManager:
    """Allocates one independent RNG stream per sub-filter.

    This is the structural analogue of MTGP's per-work-group parameter sets:
    sub-filter ``i`` always receives stream ``i`` of the master seed, so runs
    are reproducible and streams never collide regardless of how many filters
    participate.
    """

    def __init__(self, seed: int, n_streams: int, kind: str = "philox"):
        self.seed = int(seed)
        self.n_streams = check_positive_int(n_streams, "n_streams")
        self.kind = kind
        self._root = make_rng(kind, seed)

    def stream(self, i: int) -> FilterRNG:
        if not 0 <= i < self.n_streams:
            raise IndexError(f"stream index {i} out of range [0, {self.n_streams})")
        return self._root.spawn(i)

    def all_streams(self) -> list[FilterRNG]:
        return [self.stream(i) for i in range(self.n_streams)]
