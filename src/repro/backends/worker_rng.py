"""Per-sub-filter RNG streams for shard-invariant worker randomness.

Every *sub-filter* owns its own spawned stream, and a worker serves its
batched draws through a :class:`FilterStripedRNG` — the same striping
facade the session layer uses (one generator per row, ``block_rows=1``):
sub-filter ``f`` consumes its own stream in exactly the shapes and order it
would under any partition. That is the property the shard parity suite
pins: an N-shard run over TCP is bit-identical to the same filter running
every sub-filter in a single worker process, and a checkpoint resumes under
a different worker count.

Stream derivation is a pure function of ``(rng kind, seed, filter id,
generation tag)``; the tag is bumped each time a sub-filter is re-seeded by
the recovery ladder (respawn or rebalance adoption), so a replacement never
replays its predecessor's draws.
"""

from __future__ import annotations

import numpy as np

from repro.prng.streams import FilterRNG, make_rng
from repro.sessions.rng import CohortRNG

#: spawn-index floor of the per-filter family.
PER_FILTER_STREAM_BASE = 1_000_000_000
#: spawn-index stride between generation tags; filter ids must stay below
#: this for (filter, tag) pairs to index disjoint streams.
PER_FILTER_TAG_STRIDE = 10_000_019


def filter_stream_index(filter_id: int, tag: int = 0) -> int:
    """The spawn index of sub-filter *filter_id*'s generation-*tag* stream."""
    f, tag = int(filter_id), int(tag)
    if not 0 <= f < PER_FILTER_TAG_STRIDE:
        raise ValueError(
            f"filter id {f} outside the per-filter stream family "
            f"[0, {PER_FILTER_TAG_STRIDE})")
    return PER_FILTER_STREAM_BASE + tag * PER_FILTER_TAG_STRIDE + f


class FilterStripedRNG(CohortRNG):
    """A striping facade over one private stream per owned sub-filter.

    Batched draws with leading dimension ``len(ids)`` are stitched from the
    per-filter streams in ascending-id order; ``scoped_rows`` handles the
    masked-resample subset and ``delegating`` the per-filter loops
    (initialization), exactly as in the session cohort.
    """

    def __init__(self, rng_kind: str, seed: int, ids, tags=None):
        super().__init__()
        self._rng_kind = str(rng_kind)
        self._seed = int(seed)
        self._root = make_rng(self._rng_kind, self._seed)
        self._ids: list[int] = []
        self._tags: dict[int, int] = {}
        self._streams: dict[int, FilterRNG] = {}
        ids = [int(f) for f in np.asarray(ids, dtype=np.int64)]
        if tags is None:
            tags = [0] * len(ids)
        for f, tag in zip(ids, tags):
            self._streams[f] = self._make(f, int(tag))
            self._tags[f] = int(tag)
        self._ids = sorted(ids)
        self._rebind()

    def _make(self, f: int, tag: int) -> FilterRNG:
        return self._root.spawn(filter_stream_index(f, tag))

    def _rebind(self) -> None:
        self.bind([self._streams[f] for f in self._ids], block_rows=1)

    # -- ownership changes ----------------------------------------------------
    @property
    def ids(self) -> list[int]:
        return list(self._ids)

    def tag_of(self, f: int) -> int:
        return self._tags[int(f)]

    def adopt(self, ids, tags) -> None:
        """Add freshly-seeded streams for newly adopted sub-filters."""
        for f, tag in zip(np.asarray(ids, dtype=np.int64), tags):
            f, tag = int(f), int(tag)
            self._streams[f] = self._make(f, tag)
            self._tags[f] = tag
        self._ids = sorted(self._streams)
        self._rebind()

    def stream_of(self, f: int) -> FilterRNG:
        return self._streams[int(f)]

    # -- checkpointing --------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "kind": "filter_striped",
            "rng": self._rng_kind,
            "seed": self._seed,
            "streams": [[f, self._tags[f], self._streams[f].state_dict()]
                        for f in self._ids],
        }

    def load_state_dict(self, d: dict) -> None:
        self._check_state_kind(d, "filter_striped")
        self._rng_kind = str(d["rng"])
        self._seed = int(d["seed"])
        self._root = make_rng(self._rng_kind, self._seed)
        self._streams = {}
        self._tags = {}
        for f, tag, state in d["streams"]:
            f, tag = int(f), int(tag)
            gen = self._make(f, tag)
            gen.load_state_dict(state)
            self._streams[f] = gen
            self._tags[f] = tag
        self._ids = sorted(self._streams)
        self._rebind()
