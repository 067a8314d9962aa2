"""The host's speed while a run measures, from a fixed probe, and timings
restated at a reference speed.

The benchmark shares its vCPUs with other tenants' work on the same cores.
On the 2-vCPU host it was sized on, the CPU time of a fixed piece of
Python/NumPy work swung between about 6 and 10 ms over a few seconds, with
no stolen time: the same instructions simply ran slower. Every timing of a
run moves with that swing, the CPU time too, so the spread of a 25-second
run across runs was 20-40%, whatever statistic was taken of the program's
own timings.

A :class:`HostClock` times a fixed probe, which never changes, between the
rounds of a run. The program and the probe slow down together, so a
program time multiplied by ``reference / probe time`` at that moment, its
*speed factor*, reads the same however busy the host was. The probe takes
the fastest of :data:`REPS` repeats, so a probe that was interrupted, or
that found its arrays evicted by the round before it, does not count. The
speed factor of a moment is interpolated between the medians of the probes
in :data:`BLOCK_S`-second blocks.

Two probes exist because code slows by different amounts: interpreter-bound
code (a Python loop and NumPy calls on 512 elements) slows by more than
code whose time goes to NumPy on arrays of tens of thousands of elements.
Each workload names the probe whose slowdown its own rounds followed most
closely when measured.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: probe repeats per probe; the fastest counts.
REPS = 3
#: probes are grouped in blocks this long, and each block's median is used.
BLOCK_S = 1.0

_SMALL = np.linspace(0.0, 1.0, 512)
_LARGE = np.linspace(0.0, 1.0, 16384)


def _interpreter() -> None:
    s = 0
    for i in range(1500):
        s += i & 7
    a = _SMALL
    for _ in range(30):
        a = np.sqrt(a * 0.5 + 1.0)


def _arrays() -> None:
    a = _LARGE
    for _ in range(6):
        a = np.sqrt(a * 0.5 + 1.0)
    np.argsort(a)


#: ``kind: (work, reference seconds)``. The reference is the probe's time on
#: the sizing host when that host ran fastest (the 5th percentile of probes
#: taken over a minute), so adjusted timings read as times on a quiet host.
PROBES = {
    "interpreter": (_interpreter, 1.4e-4),
    "arrays": (_arrays, 2.1e-4),
}


class HostClock:
    """Probes the host's speed and restates timings at the reference speed."""

    def __init__(self, kind: str):
        self.kind = kind
        self._work, self.reference_s = PROBES[kind]
        self.at: list[float] = []
        self.times: list[float] = []
        #: thread CPU spent probing, to leave out of the program's CPU time.
        self.cpu = 0.0

    def probe(self) -> None:
        best = math.inf
        for _ in range(REPS):
            c = time.thread_time()
            self._work()
            spent = time.thread_time() - c
            self.cpu += spent
            best = min(best, spent)
        self.at.append(time.perf_counter())
        self.times.append(best)

    def factors(self, t) -> np.ndarray:
        """Speed factor at each ``time.perf_counter()`` time in *t*."""
        if not self.times:
            raise RuntimeError("the host clock has not probed yet")
        at, times = np.asarray(self.at), np.asarray(self.times)
        block = np.floor((at - at[0]) / BLOCK_S)
        mids, medians = [], []
        for b in np.unique(block):
            mine = block == b
            mids.append(float(np.mean(at[mine])))
            medians.append(float(np.median(times[mine])))
        return self.reference_s / np.interp(np.asarray(t, dtype=float), mids, medians)
