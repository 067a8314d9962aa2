"""The dtype policy: which precision each class of array carries.

Murray, Lee & Jacob (arXiv:1301.4019) get their device throughput from
float32 state slabs — but log-weight *reductions* (logsumexp, ESS, the
normalization sums inside resampling) are exactly where float32 loses
digits, so the policy splits the population into three roles:

- ``state``  — the ``(F, m, d)`` particle slabs (bandwidth-bound),
- ``weight`` — the ``(F, m)`` log-weight matrix carried between steps,
- ``reduce`` — accumulators of sums/maxima over weights (always float64
  here; every named policy keeps reductions in double, which is what the
  float32 tolerance-parity suite leans on).

``mixed`` is the default — states at the config dtype, weights and
reductions in float64. Models draw their noise and do their own arithmetic
at the state dtype, so a float32 population meets float64 only in its
weights and reductions (the robot arm's float32 golden traces were re-pinned
when it began to).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: the policy names a config may carry.
DTYPE_POLICY_NAMES = ("mixed", "float32", "float64")


@dataclass(frozen=True)
class DtypePolicy:
    """Resolved per-role dtypes for one filter run."""

    name: str
    state: np.dtype
    weight: np.dtype
    reduce: np.dtype

    @property
    def tolerance(self) -> float:
        """Documented parity bound vs a float64 run of the same seed.

        float64/mixed runs are bit-identical (0.0); float32 weights carry
        ~1e-6 relative error through a weight-normalization/logsumexp pass
        (see ``tests/kernels/test_float32_parity.py``), widened to 1e-4 to
        absorb accumulation over a multi-step trajectory's reductions.
        """
        return 1e-4 if self.weight == np.float32 else 0.0


def resolve_dtype_policy(name: str = "mixed", state_dtype=np.float32) -> DtypePolicy:
    """Map a policy name (+ the config's particle dtype) to concrete dtypes."""
    if name == "mixed":
        return DtypePolicy("mixed", np.dtype(state_dtype),
                           np.dtype(np.float64), np.dtype(np.float64))
    if name == "float32":
        return DtypePolicy("float32", np.dtype(np.float32),
                           np.dtype(np.float32), np.dtype(np.float64))
    if name == "float64":
        return DtypePolicy("float64", np.dtype(np.float64),
                           np.dtype(np.float64), np.dtype(np.float64))
    raise ValueError(
        f"dtype_policy must be one of {DTYPE_POLICY_NAMES}, got {name!r}")


__all__ = ["DTYPE_POLICY_NAMES", "DtypePolicy", "resolve_dtype_policy"]
