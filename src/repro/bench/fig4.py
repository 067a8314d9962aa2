"""Fig. 4: per-kernel runtime breakdown when scaling (a) particles per
sub-filter, (b) number of sub-filters, (c) state dimensions.

The simulated breakdowns use the cost model on the paper's GTX 580;
``measured_breakdown`` cross-checks the shape against wall-clock phase
timings of the vectorized backend on the host.
"""

from __future__ import annotations

from repro.bench.harness import arm_truth
from repro.core import DistributedFilterConfig, DistributedParticleFilter, run_filter
from repro.device import filter_round_cost, get_platform
from repro.metrics.timing import KERNELS
from repro.models import RobotArmModel, RobotArmParams


def _row(label_key, label_value, cost) -> dict:
    row = {label_key: label_value}
    fr = cost.fractions()
    for k in KERNELS:
        row[k] = fr.get(k, 0.0)
    row["total_ms"] = cost.total_seconds * 1e3
    return row


def run_fig4a(platform: str = "gtx-580", n_filters: int = 1024, state_dim: int = 9) -> list[dict]:
    dev = get_platform(platform)
    return [
        _row("particles_per_subfilter", m, filter_round_cost(dev, m, n_filters, state_dim))
        for m in (16, 32, 64, 128, 256, 512, 1024)
    ]


def run_fig4b(platform: str = "gtx-580", n_particles: int = 512, state_dim: int = 9) -> list[dict]:
    dev = get_platform(platform)
    return [
        _row("n_subfilters", N, filter_round_cost(dev, n_particles, N, state_dim))
        for N in (16, 64, 256, 1024, 4096, 8192)
    ]


def run_fig4c(platform: str = "gtx-580", n_particles: int = 512, n_filters: int = 1024) -> list[dict]:
    dev = get_platform(platform)
    return [
        _row("state_dim", d, filter_round_cost(dev, n_particles, n_filters, d))
        for d in (8, 12, 16, 24, 32, 48)
    ]


def measured_breakdown(n_particles: int = 64, n_filters: int = 64, n_joints: int = 5, n_steps: int = 10) -> dict:
    """Wall-clock phase fractions of the vectorized backend on this host.

    The default shape's noise draw (64 x 64 x 9 values) is below
    :data:`repro.prng.streams.LOOKAHEAD_MIN_DRAWS`, so ``rand`` is the draw
    itself; from that size up, with two or more CPUs, the draw runs a round
    ahead on the second core and ``rand`` is the round's wait for it.
    """
    model = RobotArmModel(RobotArmParams(n_joints=n_joints))
    cfg = DistributedFilterConfig(n_particles=n_particles, n_filters=n_filters, seed=0)
    pf = DistributedParticleFilter(model, cfg)
    truth = arm_truth(n_steps, seed=11, model=model)
    run_filter(pf, model, truth)
    total = sum(run_sec for run_sec in pf.timer.seconds.values())
    return {k: pf.timer.seconds.get(k, 0.0) / total for k in KERNELS}
