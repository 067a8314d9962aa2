"""Interleaved best-of-N block timing for the speed-direction tests.

The speed-direction tests assert only which of two execution paths is
faster at a small shape (a ratio above 1.0), never a figure: throughput
figures belong to ``perfbench/``. Even a direction flips when a burst of
load on a shared host lands on one side only, so the legs here take turns
block by block and each keeps its fastest block.
"""

import time


def best_block_seconds(legs, *, warmup, block, blocks=3):
    """Fastest wall time of *block* steps for each leg, blocks interleaved.

    ``legs`` maps a name to ``step(k)``, which advances that leg by step
    ``k``. Every leg first runs steps ``0..warmup-1`` untimed; then the legs
    take turns timing *blocks* consecutive blocks of *block* steps, so a
    leg's steps run ``0..warmup + blocks * block - 1`` in order.
    """
    for step in legs.values():
        for k in range(warmup):
            step(k)
    best = dict.fromkeys(legs, float("inf"))
    for b in range(blocks):
        start = warmup + b * block
        for name, step in legs.items():
            t0 = time.perf_counter()
            for k in range(start, start + block):
                step(k)
            best[name] = min(best[name], time.perf_counter() - t0)
    return best
