"""Box-Muller transform: uniforms -> standard normals.

The paper's RNG kernel adds a Box-Muller stage to MTGP output; we replicate
that as a standalone, array-shaped transform.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

_TINY = np.finfo(np.float64).tiny
_STANDARD_NORMAL = NormalDist()


def box_muller_pairs(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transform two uniform arrays into two independent N(0,1) arrays.

    ``z0 = sqrt(-2 ln u1) cos(2 pi u2)`` and the matching sine pair. ``u1`` is
    clamped away from zero so the log never produces infinities (a real GPU
    kernel does the same to stay finite in float32).
    """
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    if u1.shape != u2.shape:
        raise ValueError(f"u1 and u2 must have the same shape, got {u1.shape} vs {u2.shape}")
    r = np.sqrt(-2.0 * np.log(np.maximum(u1, _TINY)))
    theta = 2.0 * np.pi * u2
    return r * np.cos(theta), r * np.sin(theta)


def box_muller(uniforms: np.ndarray) -> np.ndarray:
    """Transform a flat array of uniforms into the same number of normals.

    Consumes uniforms pairwise (first half as radii, second half as angles).
    An odd length leaves one uniform without a partner; it maps through the
    inverse normal CDF instead, so every output is an independent standard
    normal and the output length equals the input length. Draw an even count
    to stay on the pairwise transform (:meth:`FilterRNG.normal` does).
    """
    u = np.asarray(uniforms, dtype=np.float64).reshape(-1)
    half = u.size // 2
    z0, z1 = box_muller_pairs(u[:half], u[half : 2 * half])
    if u.size % 2 == 0:
        return np.concatenate([z0, z1])
    tail = _STANDARD_NORMAL.inv_cdf(min(max(float(u[-1]), _TINY), 1.0 - 2.0 ** -53))
    return np.concatenate([z0, z1, [tail]])
