"""Per-session RNG lineage under batched stepping: the striped generator.

Every in-envelope draw of the filtering round has leading dimension equal to
the number of population rows (transition noise ``(rows, m, d)``, resampler
uniforms ``(rows, n)``, frequency-policy coins ``(rows,)`` — audited in
:mod:`repro.sessions.envelope`). :class:`CohortRNG` exploits that: it holds
one private generator per session and serves each batched draw by stitching
together per-session draws of the rows that session owns. Session ``s``
therefore consumes *its own* stream in exactly the shapes and order it would
if stepped alone — which is what makes cohort traces bit-identical to solo
traces.

Two scoping modes cover the round's non-default draw patterns:

- :meth:`scoped_rows` restricts striping to a row subset (the masked
  resample path draws only for the rows that resample this round);
- :meth:`delegating` forwards draws verbatim to one session's generator
  (the allocation migration path loops a single session's rows and draws
  flat ``(n,)`` vectors, just like the solo code path does).

When every striped stream is a :class:`~repro.prng.streams.NumpyRNG`, a
batched draw is one ``NumpyRNG`` draw whose generator fills each stream's
row block in place (:func:`~repro.prng.streams.stripe_numpy_rows`), built
once per binding or scope rather than per draw; other streams are drawn
one segment at a time and stitched. A binding builds the stripe in one
pass when the caller says which streams are plain ``NumpyRNG``\\ s
(a cohort decides that once per session, at attach).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.prng.streams import (
    FilterRNG,
    numpy_generator,
    stripe_generators,
    stripe_numpy_rows,
)


class CohortStripeError(RuntimeError):
    """A draw that cannot be attributed to per-session streams.

    Raised when a batched draw's leading dimension does not equal the number
    of striped rows — i.e. some kernel or model draws in a shape the cohort
    envelope does not admit. The fix is never to ignore this: it means the
    draw cannot be bit-reproduced per session.
    """


class CohortRNG(FilterRNG):
    """A :class:`FilterRNG` facade striping draws across per-session streams."""

    def __init__(self):
        self._gens: list[FilterRNG] = []
        self._block_rows = 1
        #: active segments as (generator, n_rows) pairs, in row order
        #: (``None`` while a stripe serves every draw of the bound rows).
        self._segments: list[tuple[FilterRNG, int]] | None = []
        self._rows = 0
        self._stripe: FilterRNG | None = None
        self._delegate: FilterRNG | None = None

    # -- binding ------------------------------------------------------------
    def bind(self, gens: list[FilterRNG], block_rows: int,
             numpy_gens: list | None = None) -> None:
        """Install this tick's per-session generators (row-block order).

        Session ``j`` of the bound list owns rows
        ``[j * block_rows, (j + 1) * block_rows)`` of every batched draw.
        ``numpy_gens`` holds each stream's
        :func:`~repro.prng.streams.numpy_generator`, decided once by a
        caller that binds the same streams every tick (``None`` entries
        for other kinds); without it the streams are inspected here.
        """
        self._gens = gens = list(gens)
        X = self._block_rows = int(block_rows)
        self._rows = len(gens) * X
        if numpy_gens is None:
            numpy_gens = [numpy_generator(g) for g in gens]
        if None in numpy_gens:
            self._segments = [(g, X) for g in gens]
            self._stripe = None
        else:
            self._segments = None  # the stripe serves every full-rows draw
            self._stripe = stripe_generators(numpy_gens, X)

    def _set_segments(self, segments) -> None:
        self._segments = segments
        self._rows = sum(n for _, n in segments)
        self._stripe = stripe_numpy_rows(segments)

    @contextmanager
    def scoped_rows(self, rows: np.ndarray):
        """Stripe draws over a sorted subset of the bound global rows.

        ``rows`` are global row indices (ascending). Each bound session
        contributes one contiguous segment of the subset, sized by how many
        of its rows appear — matching the single contiguous draw the solo
        filter performs for its own masked rows.
        """
        rows = np.asarray(rows)
        counts = np.bincount(rows // self._block_rows, minlength=len(self._gens))
        saved = self._segments, self._rows, self._stripe
        self._set_segments([(self._gens[b], int(n))
                            for b, n in enumerate(counts) if n])
        try:
            yield self
        finally:
            self._segments, self._rows, self._stripe = saved

    @contextmanager
    def delegating(self, block: int):
        """Forward draws verbatim to the *block*-th bound generator."""
        saved = self._delegate
        self._delegate = self._gens[block]
        try:
            yield self
        finally:
            self._delegate = saved

    # -- FilterRNG interface -------------------------------------------------
    def uniform(self, shape, dtype=np.float64) -> np.ndarray:
        if self._delegate is not None:
            return self._delegate.uniform(shape, dtype=dtype)
        return self._striped("uniform", shape, dtype)

    def normal(self, shape, dtype=np.float64) -> np.ndarray:
        # Must stripe *before* the base-class Box-Muller flattening: each
        # session's generator applies its own normal() to its own rows,
        # exactly as the solo filter would.
        if self._delegate is not None:
            return self._delegate.normal(shape, dtype=dtype)
        return self._striped("normal", shape, dtype)

    def _striped(self, method: str, shape, dtype) -> np.ndarray:
        try:
            lead = int(shape[0])
        except (TypeError, IndexError):
            raise CohortStripeError(
                f"cohort draw of shape {shape!r} has no leading rows "
                f"dimension; the model/kernel is not cohort-batchable"
            ) from None
        if lead != self._rows:
            raise CohortStripeError(
                f"cohort draw of shape {shape!r} does not match the "
                f"{self._rows} striped rows; the model/kernel is not "
                f"cohort-batchable")
        if self._stripe is not None:
            return getattr(self._stripe, method)(shape, dtype=dtype)
        tail = tuple(shape[1:])
        out = np.empty(shape, dtype=np.dtype(dtype))
        ofs = 0
        for gen, n in self._segments:
            out[ofs:ofs + n] = getattr(gen, method)((n,) + tail, dtype=dtype)
            ofs += n
        return out

    def spawn(self, stream: int) -> FilterRNG:
        raise NotImplementedError(
            "CohortRNG is a per-tick facade over session streams; spawn the "
            "underlying session generators instead")
