"""Shared benchmark utilities."""

from __future__ import annotations

import numpy as np

from repro.core import DistributedFilterConfig, DistributedParticleFilter, run_filter
from repro.models import RobotArmModel, lemniscate, simulate_arm_tracking
from repro.prng import make_rng


def format_table(rows: list[dict], floatfmt: str = "{:.4g}") -> str:
    """Render a list of row dicts as an aligned text table."""
    if not rows:
        return "(no rows)"
    cols = list(dict.fromkeys(k for r in rows for k in r))

    def cell(r, c):
        v = r.get(c)
        if v is None:
            return "-"
        return floatfmt.format(v) if isinstance(v, float) else str(v)

    rendered = [[cell(r, c) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in rendered)) for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    lines.append("  ".join("-" * w for w in widths))
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rendered]
    return "\n".join(lines)


def arm_truth(n_steps: int, seed: int, model: RobotArmModel | None = None):
    """A lemniscate-tracking ground truth for the robotic arm."""
    model = model or RobotArmModel()
    pos, vel = lemniscate(n_steps, h_s=model.params.h_s)
    return simulate_arm_tracking(model, pos, vel, make_rng("numpy", seed))


def sweep_error(
    config: DistributedFilterConfig,
    n_runs: int = 3,
    n_steps: int = 60,
    warmup: int = 20,
    model: RobotArmModel | None = None,
    filter_cls=DistributedParticleFilter,
) -> float:
    """Mean robotic-arm tracking error of one filter configuration,
    averaged over independent runs (the paper averages 100 runs of 200
    steps; defaults here are laptop-scale and configurable upward)."""
    model = model or RobotArmModel()
    errs = []
    for r in range(n_runs):
        truth = arm_truth(n_steps, seed=1000 + r, model=model)
        pf = filter_cls(model, config.with_(seed=r))
        errs.append(run_filter(pf, model, truth).mean_error(warmup=warmup))
    return float(np.mean(errs))
