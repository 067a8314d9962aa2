"""Filter configuration (Tables I and II of the paper).

Table I identifies the distributed filter's parameters: particles per
sub-filter (m), number of sub-filters (N), exchange scheme (X) and particles
per exchange (t). Table II gives the defaults used throughout the paper's
experiments: m=512 on GPUs / 64 on CPUs, N=1024, Ring, t=1, plus the robotic
arm model defaults carried by :class:`repro.models.RobotArmParams`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.utils.validation import check_dtype, check_positive_int


@dataclass(frozen=True)
class DistributedFilterConfig:
    """Parameters of the distributed particle filter (Table I).

    Attributes
    ----------
    n_particles:
        m - particles per sub-filter.
    n_filters:
        N - number of sub-filters in the network.
    topology:
        X - exchange scheme: ``"ring"``, ``"torus"``, ``"all-to-all"`` or
        ``"none"`` (or a pre-built :class:`~repro.topology.ExchangeTopology`).
    n_exchange:
        t - particles exchanged per neighbour pair per round (0 disables).
    resampler:
        ``"rws"`` (paper's sub-filter choice), ``"vose"``, ``"systematic"``,
        ``"stratified"``, ``"multinomial"`` or ``"residual"``.
    resample_policy / resample_arg:
        ``"always"`` (paper default), ``"ess"`` (threshold ratio in
        ``resample_arg``) or ``"frequency"`` (probability in ``resample_arg``).
    estimator:
        global estimate reduction: ``"max_weight"`` (paper's choice) or
        ``"weighted_mean"``.
    exchange_select:
        ``"best"`` — send the top-t after the local sort (paper's kernel) —
        or ``"sample"`` — draw the t sent particles by weight (Algorithm 2's
        line 11 notation).
    selection:
        ``"sort"`` — full local bitonic sort — or ``"max"`` — the cheaper
        local-maximum alternative the paper suggests (forces t=1 semantics).
    dtype:
        float32 (paper's device precision) or float64.
    rng / seed:
        RNG backend name (see :func:`repro.prng.make_rng`) and master seed.
    """

    n_particles: int = 512
    n_filters: int = 1024
    topology: object = "ring"
    n_exchange: int = 1
    resampler: str = "rws"
    resample_policy: str = "always"
    resample_arg: float = 0.5
    estimator: str = "max_weight"
    exchange_select: str = "best"
    selection: str = "sort"
    frim_redraws: int = 0
    frim_quantile: float = 0.5
    #: roughening coefficient (Gordon, Salmond & Smith 1993): after each
    #: resample, jitter particles by K * range * n^(-1/d) per dimension to
    #: fight sample impoverishment. 0 disables (paper default).
    roughening: float = 0.0
    #: numerical self-healing: each round, NaN weights and non-finite
    #: particles are masked to -inf, and a sub-filter that lost *every*
    #: finite weight is rejuvenated from a live topological neighbour
    #: (see docs/robustness.md). Purely corrective — a healthy run takes
    #: the exact same path with or without it.
    self_heal: bool = True
    #: particle allocation across sub-filters: ``"fixed"`` (the paper's
    #: equal split — widths never change and the layout is the classic
    #: ``(F, m, d)`` block), ``"ess"`` (widths proportional to each
    #: sub-filter's effective sample size) or ``"mass"`` (DRNA-style:
    #: widths proportional to local weight mass). See
    #: :mod:`repro.allocation`. The total budget ``n_filters * n_particles``
    #: is conserved exactly under every policy.
    allocation: str = "fixed"
    #: smallest live width an adaptive policy may shrink a sub-filter to.
    alloc_min_width: int = 4
    #: largest live width (and the padded capacity ``m_max`` arrays are
    #: sized for); 0 means "resolve to 4 * n_particles".
    alloc_max_width: int = 0
    #: relative dead-band: a sub-filter's width only changes when the
    #: proposal differs from the current width by more than this fraction.
    alloc_hysteresis: float = 0.25
    dtype: object = np.float32
    #: execution-form preference: ``"reference"`` (the historical batched-
    #: NumPy forms — every golden trace pins this) or ``"compiled"``
    #: (fused/JIT forms where a kernel provides them, reference otherwise).
    #: See :class:`repro.kernels.forms.ExecutionPolicy`.
    execution: str = "reference"
    #: per-role precision: ``"mixed"`` (states at ``dtype``, float64
    #: log-weights and reductions), ``"float32"``
    #: (float32 states *and* log-weights, float64 reductions) or
    #: ``"float64"`` (everything double). See :mod:`repro.core.dtypes`.
    dtype_policy: str = "mixed"
    #: randomness partitioning across workers: ``"worker"`` (one stream per
    #: worker process — the historical behaviour every pre-shard golden
    #: trace pins) or ``"filter"`` (one stream per sub-filter, striped into
    #: the worker's batched draws — results become invariant to how
    #: sub-filters are sharded over workers, which is what makes N-shard
    #: runs bit-identical to single-process runs and lets checkpoints
    #: resume under a different shard count). Single-process backends
    #: ignore it.
    rng_streams: str = "worker"
    rng: str = "numpy"
    seed: int = 0

    def __post_init__(self):
        check_positive_int(self.n_particles, "n_particles")
        check_positive_int(self.n_filters, "n_filters")
        if self.n_exchange < 0:
            raise ValueError(f"n_exchange must be >= 0, got {self.n_exchange}")
        if self.n_exchange > self.n_particles:
            raise ValueError("cannot exchange more particles than a sub-filter holds")
        if self.exchange_select not in ("best", "sample"):
            raise ValueError(f"exchange_select must be 'best' or 'sample', got {self.exchange_select!r}")
        if self.selection not in ("sort", "max"):
            raise ValueError(f"selection must be 'sort' or 'max', got {self.selection!r}")
        if self.estimator not in ("max_weight", "weighted_mean"):
            raise ValueError(f"estimator must be 'max_weight' or 'weighted_mean', got {self.estimator!r}")
        if self.resample_policy not in ("always", "ess", "frequency"):
            raise ValueError(f"unknown resample_policy {self.resample_policy!r}")
        if self.frim_redraws < 0:
            raise ValueError(f"frim_redraws must be >= 0, got {self.frim_redraws}")
        if not 0.0 < self.frim_quantile < 1.0:
            raise ValueError(f"frim_quantile must be in (0, 1), got {self.frim_quantile}")
        if self.roughening < 0:
            raise ValueError(f"roughening must be >= 0, got {self.roughening}")
        if self.allocation not in ("fixed", "ess", "mass"):
            raise ValueError(
                f"allocation must be 'fixed', 'ess' or 'mass', got {self.allocation!r}")
        if self.allocation != "fixed":
            if self.frim_redraws > 0:
                raise ValueError(
                    "adaptive allocation is incompatible with FRIM redraws "
                    "(the per-sub-filter redraw quantile assumes equal widths)")
            if self.alloc_hysteresis < 0:
                raise ValueError(
                    f"alloc_hysteresis must be >= 0, got {self.alloc_hysteresis}")
            # Resolve the clamps once, so serialized configs are concrete.
            max_w = self.alloc_max_width if self.alloc_max_width > 0 else 4 * self.n_particles
            min_w = min(self.alloc_min_width, self.n_particles)
            if min_w < 1:
                raise ValueError(
                    f"alloc_min_width must be >= 1, got {self.alloc_min_width}")
            if max_w < self.n_particles:
                raise ValueError(
                    f"alloc_max_width ({max_w}) must be >= n_particles "
                    f"({self.n_particles}) so the initial equal split is feasible")
            object.__setattr__(self, "alloc_min_width", int(min_w))
            object.__setattr__(self, "alloc_max_width", int(max_w))
        if self.execution not in ("reference", "compiled"):
            raise ValueError(
                f"execution must be 'reference' or 'compiled', got {self.execution!r}")
        if self.dtype_policy not in ("mixed", "float32", "float64"):
            raise ValueError(
                f"dtype_policy must be 'mixed', 'float32' or 'float64', "
                f"got {self.dtype_policy!r}")
        if self.rng_streams not in ("worker", "filter"):
            raise ValueError(
                f"rng_streams must be 'worker' or 'filter', "
                f"got {self.rng_streams!r}")
        object.__setattr__(self, "dtype", check_dtype(self.dtype))

    @property
    def total_particles(self) -> int:
        return self.n_particles * self.n_filters

    def with_(self, **kwargs) -> "DistributedFilterConfig":
        """A modified copy (convenience for parameter sweeps)."""
        return replace(self, **kwargs)


#: Table II defaults for GPU-class execution (512 particles per sub-filter).
DEFAULT_GPU_CONFIG = DistributedFilterConfig(n_particles=512, n_filters=1024, topology="ring", n_exchange=1)

#: Table II defaults for CPU-class execution (64 particles per sub-filter).
DEFAULT_CPU_CONFIG = DistributedFilterConfig(n_particles=64, n_filters=1024, topology="ring", n_exchange=1)


@dataclass(frozen=True)
class CentralizedFilterConfig:
    """Parameters of the reference centralized filter (Algorithm 1)."""

    n_particles: int = 4096
    resampler: str = "vose"  # the paper's centralized filter uses Vose
    resample_policy: str = "always"
    resample_arg: float = 0.5
    estimator: str = "weighted_mean"
    dtype: object = np.float64
    rng: str = "numpy"
    seed: int = 0

    def __post_init__(self):
        check_positive_int(self.n_particles, "n_particles")
        if self.estimator not in ("max_weight", "weighted_mean"):
            raise ValueError(f"estimator must be 'max_weight' or 'weighted_mean', got {self.estimator!r}")
        if self.resample_policy not in ("always", "ess", "frequency"):
            raise ValueError(f"unknown resample_policy {self.resample_policy!r}")
        object.__setattr__(self, "dtype", check_dtype(self.dtype))


# ---------------------------------------------------------------------------
# Serialization (experiment records)
# ---------------------------------------------------------------------------


def _config_to_dict(cfg) -> dict:
    out = {}
    for f in cfg.__dataclass_fields__:
        v = getattr(cfg, f)
        if f == "dtype":
            v = np.dtype(v).name
        elif f == "topology" and not isinstance(v, str):
            raise TypeError(
                "only named topologies serialize; build custom graphs at load time"
            )
        out[f] = v
    return out


def distributed_config_to_dict(cfg: DistributedFilterConfig) -> dict:
    """JSON-ready record of a distributed filter configuration."""
    return _config_to_dict(cfg)


def distributed_config_from_dict(d: dict) -> DistributedFilterConfig:
    """Inverse of :func:`distributed_config_to_dict`."""
    return DistributedFilterConfig(**d)


def centralized_config_to_dict(cfg: CentralizedFilterConfig) -> dict:
    """JSON-ready record of a centralized filter configuration."""
    return _config_to_dict(cfg)


def centralized_config_from_dict(d: dict) -> CentralizedFilterConfig:
    """Inverse of :func:`centralized_config_to_dict`."""
    return CentralizedFilterConfig(**d)
