"""The kernel registry: one definition per kernel, consumed by three layers.

The paper's contribution is a small set of data-parallel kernels whose
per-kernel time breakdown drives every configuration rule of thumb. In this
repo each kernel exists in two executable forms (batched NumPy and work-group
SIMT) *and* as a set of analytic flop/byte/barrier formulas in the cost
model. Before this module those three views lived in three places and could
silently drift apart.

A :class:`KernelDef` binds them back together:

- ``batch`` — the batched NumPy implementation the filters execute,
- ``workgroup`` — the lock-step SIMT form run on the device simulator,
- ``cost`` — a :class:`CostSig` giving flops / bytes read / bytes written /
  barriers as functions of :class:`CostParams` ``(m, state_dim,
  group_size, ...)``, from which a
  :class:`~repro.device.costmodel.KernelWorkload` is derived,
- validation adapters (``make_inputs`` / ``run_batch`` / ``run_workgroup`` /
  ``compare`` / ``make_params``) that let
  :func:`repro.device.kernel.validate` run both forms on the same inputs,
  check bit-parity, and cross-check the measured
  :class:`~repro.device.simt.SimtStats` against the ``CostSig`` prediction.

Registering a kernel therefore buys it execution, simulation, cost
accounting and differential testing at once — the extension path the
Metropolis resampler (Murray 2012) exercises end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro.device.costmodel import (
    RNG_FLOPS_PER_VALUE,
    KernelWorkload,
    model_flops_per_particle,
    scattered_aos_efficiency,
)
from repro.device.memory import LocalMemory
from repro.device.simt import WorkGroup
from repro.kernels.bitonic import bitonic_argsort_batch, bitonic_sort_workgroup
from repro.kernels.exchange import route_pairwise, route_pooled
from repro.kernels.metropolis import (
    default_metropolis_steps,
    metropolis_resample_batch,
    metropolis_workgroup,
)
from repro.kernels.reduce import max_reduce_batch, tree_reduce_workgroup
from repro.kernels.resample_kernels import (
    alias_build_workgroup,
    alias_sample_workgroup,
    rws_workgroup,
)
from repro.kernels.scan import blelloch_scan_workgroup, exclusive_scan_batch

__all__ = [
    "CostParams",
    "CostSig",
    "KernelDef",
    "KernelRegistry",
    "default_registry",
    "kernel_cost_attrs",
    "register_default_kernels",
    "weight_argsort_batch",
]

#: form names every kernel implicitly understands; anything else resolves
#: through :attr:`KernelDef.forms` (see :mod:`repro.kernels.forms`).
_BUILTIN_FORMS = ("batch", "reference", "workgroup")


# ---------------------------------------------------------------------------
# Cost signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostParams:
    """Problem-shape parameters a :class:`CostSig` is evaluated at.

    ``m`` is the per-sub-filter element count (particles per group for most
    kernels), ``n_groups`` the number of work groups (= sub-filters ``N``
    for the per-sub-filter kernels), ``group_size`` the launch's threads per
    group (defaults to ``m``). ``pool`` is the resampling candidate-set size
    ``m + degree * n_exchange`` (defaults to ``m``), and ``n_filters`` the
    sub-filter count when it differs from ``n_groups`` (the estimate kernel
    reduces ``N`` values with fewer groups).
    """

    m: int
    state_dim: int = 9
    group_size: int | None = None
    n_groups: int = 1
    n_filters: int | None = None
    dtype_bytes: int = 4
    pool: int | None = None
    n_exchange: int = 1
    degree: int = 2

    @property
    def group_size_(self) -> int:
        return self.m if self.group_size is None else self.group_size

    @property
    def n_filters_(self) -> int:
        return self.n_groups if self.n_filters is None else self.n_filters

    @property
    def pool_(self) -> int:
        return self.m if self.pool is None else self.pool

    @property
    def total(self) -> int:
        """Device-wide element count ``P = n_groups * m``."""
        return self.n_groups * self.m

    @property
    def log2m(self) -> float:
        return max(math.log2(self.m), 1.0)

    @property
    def sort_stages(self) -> float:
        """Compare-exchange stages of the bitonic network over ``m`` keys."""
        return self.log2m * (self.log2m + 1) / 2.0

    @property
    def aos_efficiency(self) -> float:
        """Scattered-gather bandwidth efficiency of one particle struct."""
        return scattered_aos_efficiency(self.state_dim * self.dtype_bytes)


def _zero(p: CostParams) -> float:
    return 0.0


def _one(p: CostParams) -> float:
    return 1.0


@dataclass(frozen=True)
class CostSig:
    """Analytic cost signature: workload terms as functions of the shape.

    Every term is a callable of :class:`CostParams`; :meth:`workload` turns
    the signature into the :class:`KernelWorkload` the cost model prices.
    ``barriers`` is per work group (``syncs_per_group``), everything else is
    device-wide, matching :class:`KernelWorkload`'s conventions.
    """

    flops: Callable[[CostParams], float] = _zero
    bytes_read: Callable[[CostParams], float] = _zero
    bytes_written: Callable[[CostParams], float] = _zero
    barriers: Callable[[CostParams], float] = _zero
    local_ops: Callable[[CostParams], float] = _zero
    serial_ops: Callable[[CostParams], float] = _zero
    read_coalescing: Callable[[CostParams], float] = _one
    write_coalescing: Callable[[CostParams], float] = _one
    launches: int = 1
    rng_kernel: bool = False

    def workload(self, name: str, p: CostParams) -> KernelWorkload:
        return KernelWorkload(
            name=name,
            n_groups=p.n_groups,
            group_size=p.group_size_,
            flops=self.flops(p),
            bytes_read=self.bytes_read(p),
            bytes_written=self.bytes_written(p),
            read_coalescing=self.read_coalescing(p),
            write_coalescing=self.write_coalescing(p),
            local_ops=self.local_ops(p),
            serial_ops=self.serial_ops(p),
            syncs_per_group=int(self.barriers(p)),
            launches=self.launches,
        )


# ---------------------------------------------------------------------------
# Kernel definitions
# ---------------------------------------------------------------------------


@dataclass
class KernelDef:
    """One kernel: name, both implementations, cost signature, validators.

    ``batch``/``workgroup`` are the public implementations the engine and
    the device pipeline dispatch to (either may be ``None`` for cost-only
    stage signatures like ``rand``). ``forms`` holds any number of extra
    named execution forms — conventionally ``"compiled"`` for a fused /
    JIT-compiled variant — selected at dispatch time by an
    :class:`~repro.kernels.forms.ExecutionPolicy`; ``"batch"`` (alias
    ``"reference"``) and ``"workgroup"`` remain implicit form names for the
    two classic slots. The ``make_inputs``/``run_batch``/
    ``run_workgroup``/``compare``/``make_params`` adapters define the
    differential-validation protocol; a kernel carrying all of them is
    *validatable* and is picked up automatically by the parametrized parity
    tests and by :func:`repro.device.kernel.validate`.
    """

    name: str
    description: str
    cost: CostSig
    batch: Callable | None = None
    workgroup: Callable | None = None
    forms: dict[str, Callable] = field(default_factory=dict)
    make_inputs: Callable[[np.random.Generator, int], dict[str, Any]] | None = None
    run_batch: Callable[[dict[str, Any]], np.ndarray] | None = None
    run_workgroup: Callable[[WorkGroup, dict[str, Any]], np.ndarray] | None = None
    compare: Callable[[np.ndarray, np.ndarray, dict[str, Any]], None] | None = None
    make_params: Callable[[int], CostParams] | None = None
    check_barriers: bool = True
    work_tolerance: float = 8.0

    @property
    def validatable(self) -> bool:
        return None not in (
            self.make_inputs,
            self.run_batch,
            self.run_workgroup,
            self.compare,
            self.make_params,
        )

    def workload(self, params: CostParams) -> KernelWorkload:
        """The :class:`KernelWorkload` this kernel predicts for *params*."""
        return self.cost.workload(self.name, params)


class KernelRegistry:
    """Name -> :class:`KernelDef` with lookup and implementation dispatch."""

    def __init__(self):
        self._kernels: dict[str, KernelDef] = {}

    def register(self, kdef: KernelDef) -> KernelDef:
        if kdef.name in self._kernels:
            raise ValueError(f"kernel {kdef.name!r} already registered")
        self._kernels[kdef.name] = kdef
        return kdef

    def get(self, name: str) -> KernelDef:
        try:
            return self._kernels[name]
        except KeyError:
            raise KeyError(f"unknown kernel {name!r}; registered: {self.names()}") from None

    def names(self) -> list[str]:
        return sorted(self._kernels)

    def validatable(self) -> list[KernelDef]:
        """Kernels carrying the full differential-validation protocol."""
        return [k for k in self._kernels.values() if k.validatable]

    def batch(self, name: str) -> Callable:
        impl = self.get(name).batch
        if impl is None:
            raise ValueError(f"kernel {name!r} has no batch implementation")
        return impl

    def workgroup(self, name: str) -> Callable:
        impl = self.get(name).workgroup
        if impl is None:
            raise ValueError(f"kernel {name!r} has no work-group implementation")
        return impl

    def register_form(self, name: str, form_name: str, impl: Callable) -> None:
        """Attach an extra execution form to an already-registered kernel."""
        if form_name in _BUILTIN_FORMS:
            raise ValueError(
                f"form name {form_name!r} is reserved; set the kernel's "
                f"batch/workgroup slot instead")
        kdef = self.get(name)
        if form_name in kdef.forms:
            raise ValueError(f"kernel {name!r} already has a {form_name!r} form")
        kdef.forms[form_name] = impl

    def form(self, name: str, form_name: str) -> Callable:
        """The named execution form of kernel *name* (raises if absent)."""
        if form_name in ("batch", "reference"):
            return self.batch(name)
        if form_name == "workgroup":
            return self.workgroup(name)
        impl = self.get(name).forms.get(form_name)
        if impl is None:
            raise ValueError(
                f"form must be one of {self.forms_of(name)} for kernel "
                f"{name!r}; got {form_name!r}")
        return impl

    def forms_of(self, name: str) -> tuple[str, ...]:
        """Every executable form of kernel *name* (reference first)."""
        kdef = self.get(name)
        forms = []
        if kdef.batch is not None:
            forms.append("reference")
        if kdef.workgroup is not None:
            forms.append("workgroup")
        forms.extend(sorted(kdef.forms))
        return tuple(forms)

    def dispatch(self, name: str, *args, form: str = "batch", **kwargs):
        """Invoke a kernel implementation by name and form — pure routing."""
        return self.form(name, form)(*args, **kwargs)

    def workload(self, name: str, params: CostParams) -> KernelWorkload:
        return self.get(name).workload(params)

    def __contains__(self, name: str) -> bool:
        return name in self._kernels

    def __iter__(self):
        return iter(self._kernels.values())

    def __len__(self) -> int:
        return len(self._kernels)


# ---------------------------------------------------------------------------
# The default kernel set
# ---------------------------------------------------------------------------


#: Below this many keys the stable argsort alone beats the SIMD argsort
#: plus its tie check (2-vCPU Xeon, NumPy 2.4.6, best of 15: 64x32 keys
#: 14 against 26 us, 128x16 10 against 31 us; 128x32 79 against 46 us,
#: 256x64 423 against 139 us).
STABLE_ARGSORT_MAX_KEYS = 4096


def stable_row_argsort(keys: np.ndarray) -> np.ndarray:
    """Row-wise ascending argsort of ``(F, m)`` *keys* in the stable order.

    A row of distinct keys has one sorting order, the stable one, so from
    :data:`STABLE_ARGSORT_MAX_KEYS` keys up every row takes the default
    (SIMD) argsort and only rows with a tie (or a NaN, which compares
    unequal to everything) are re-sorted stably.
    """
    if keys.size < STABLE_ARGSORT_MAX_KEYS:
        return keys.argsort(axis=1, kind="stable")
    order = keys.argsort(axis=1)
    ordered = np.sort(keys, axis=1)
    redo = ~(ordered[:, 1:] > ordered[:, :-1]).all(axis=1)
    if redo.any():
        order[redo] = keys[redo].argsort(axis=1, kind="stable")
    return order


def weight_argsort_batch(log_weights: np.ndarray) -> np.ndarray:
    """Stable descending row-wise argsort — the engine's production sort.

    Functionally a descending bitonic sort per sub-filter; the stable
    tie-break is part of the engine's reproducibility contract (golden
    traces), which is why this — and not the bitonic network — is the
    registered batch form of ``sort`` (see :func:`stable_row_argsort`).
    """
    return stable_row_argsort(-np.atleast_2d(log_weights))


def _assert_bit_equal(expected: np.ndarray, got: np.ndarray, inputs: dict[str, Any]) -> None:
    expected = np.asarray(expected)
    got = np.asarray(got)
    if expected.shape != got.shape:
        raise AssertionError(f"shape mismatch: batch {expected.shape} vs work-group {got.shape}")
    if not np.array_equal(expected, got):
        bad = np.flatnonzero(np.asarray(expected != got).ravel())
        raise AssertionError(
            f"batch and work-group forms disagree at {bad.size}/{got.size} "
            f"positions (first: {bad[:8].tolist()})"
        )


def _alias_mass(prob: np.ndarray, alias: np.ndarray) -> np.ndarray:
    """Total selection probability of each index under an alias table."""
    n = prob.size
    mass = prob / n
    return mass + np.bincount(alias, weights=(1.0 - prob) / n, minlength=n)


def _compare_alias_tables(expected, got, inputs: dict[str, Any]) -> None:
    """Alias tables are not unique; equality means equal per-index mass."""
    w = np.asarray(inputs["weights"], dtype=np.float64)
    target = w / w.sum()
    for label, (prob, alias) in (("batch", expected), ("work-group", got)):
        mass = _alias_mass(np.asarray(prob), np.asarray(alias))
        err = float(np.abs(mass - target).max())
        if err > 1e-9:
            raise AssertionError(f"{label} alias table mass deviates by {err:.3e}")


def _staged_local(wg: WorkGroup, values: np.ndarray, dtype=np.float64) -> LocalMemory:
    mem = wg.local_array(values.size, dtype=dtype)
    mem[:] = values
    return mem


def _sort_run_workgroup(wg: WorkGroup, inputs: dict[str, Any]) -> np.ndarray:
    keys = _staged_local(wg, np.asarray(inputs["keys"], dtype=np.float64))
    bitonic_sort_workgroup(wg, keys, descending=True)
    return keys.data[: np.asarray(inputs["keys"]).size].copy()


def _bitonic_run_workgroup(wg: WorkGroup, inputs: dict[str, Any]) -> np.ndarray:
    keys = np.asarray(inputs["keys"], dtype=np.float64)
    kmem = _staged_local(wg, keys)
    vmem = _staged_local(wg, np.arange(keys.size), dtype=np.int64)
    bitonic_sort_workgroup(wg, kmem, vmem)
    return vmem.data[: keys.size].copy()


def _rws_run_workgroup(wg: WorkGroup, inputs: dict[str, Any]) -> np.ndarray:
    return rws_workgroup(wg, inputs["weights"], inputs["uniforms"])


def _alias_build_run_batch(inputs: dict[str, Any]):
    from repro.resampling.vose import build_alias_table

    w = np.asarray(inputs["weights"], dtype=np.float64)
    return build_alias_table(w / w.sum())


def _alias_sample_inputs(rng: np.random.Generator, n: int) -> dict[str, Any]:
    from repro.resampling.vose import build_alias_table

    w = rng.random(n) + 0.05
    prob, alias = build_alias_table(w / w.sum())
    return {
        "prob": prob,
        "alias": alias,
        "u_select": rng.random(n),
        "u_coin": rng.random(n),
    }


def _alias_sample_run_batch(inputs: dict[str, Any]) -> np.ndarray:
    from repro.resampling.vose import alias_sample

    return alias_sample(inputs["prob"], inputs["alias"], inputs["u_select"], inputs["u_coin"])


def _metropolis_inputs(rng: np.random.Generator, n: int) -> dict[str, Any]:
    steps = default_metropolis_steps(n)
    return {
        "weights": rng.random(n) + 1e-3,
        "u_prop": rng.random((steps, n)),
        "u_acc": rng.random((steps, n)),
    }


def register_default_kernels(reg: KernelRegistry) -> KernelRegistry:
    """Register the paper's kernel set (plus Metropolis) into *reg*.

    The ``CostSig`` formulas here are the single source of the analytic
    model: :func:`repro.device.costmodel.filter_round_cost` derives every
    stage workload from them instead of inlining formulas of its own.
    """
    # 1) PRNG: d normals per particle, written to global memory (cost-only —
    #    the executable form is the FilterRNG stream itself).
    reg.register(
        KernelDef(
            name="rand",
            description="MTGP-style PRNG: state_dim normals per particle",
            cost=CostSig(
                flops=lambda p: p.total * p.state_dim * RNG_FLOPS_PER_VALUE,
                bytes_written=lambda p: p.total * p.state_dim * p.dtype_bytes,
                rng_kernel=True,
            ),
        )
    )

    # 2) Sampling + importance weighting over the AoS particle store.
    reg.register(
        KernelDef(
            name="sampling",
            description="propagate + weight every particle (robotic-arm model)",
            cost=CostSig(
                flops=lambda p: p.total * model_flops_per_particle(p.state_dim),
                bytes_read=lambda p: (
                    p.total * 2 * p.state_dim * p.dtype_bytes
                    + p.n_filters_ * (p.state_dim - 2) * p.dtype_bytes
                ),
                bytes_written=lambda p: p.total * (p.state_dim + 1) * p.dtype_bytes,
            ),
        )
    )

    # 3) The production sort stage: stable descending argsort of the weights
    #    plus the permutation applied to the AoS states (scattered reads,
    #    contiguous writes — Section VI-C).
    reg.register(
        KernelDef(
            name="sort",
            description="per-sub-filter descending weight sort + AoS permute",
            cost=CostSig(
                local_ops=lambda p: p.n_groups * (p.m / 2) * p.sort_stages * 3.0,
                barriers=lambda p: p.sort_stages,
                bytes_read=lambda p: p.total * p.dtype_bytes * (1 + p.state_dim),
                read_coalescing=lambda p: p.aos_efficiency,
                bytes_written=lambda p: p.total * p.dtype_bytes * (p.state_dim + 1),
            ),
            batch=weight_argsort_batch,
            workgroup=bitonic_sort_workgroup,
            # Parity on the sorted *keys*: the stable argsort and the bitonic
            # network order ties differently, but the sorted key sequences
            # must agree bit for bit.
            make_inputs=lambda rng, n: {"keys": rng.standard_normal(n)},
            run_batch=lambda inputs: np.take_along_axis(
                np.atleast_2d(np.asarray(inputs["keys"], dtype=np.float64)),
                weight_argsort_batch(inputs["keys"]),
                axis=1,
            )[0],
            run_workgroup=_sort_run_workgroup,
            compare=_assert_bit_equal,
            make_params=lambda n: CostParams(m=n),
        )
    )

    # 3b) The bitonic network itself (local permutation build, no global
    #     AoS traffic) — both forms run the identical comparison network,
    #     so even the permutations match bitwise.
    reg.register(
        KernelDef(
            name="bitonic_sort",
            description="data-independent bitonic sorting network",
            cost=CostSig(
                local_ops=lambda p: p.n_groups * (p.m / 2) * p.sort_stages * 3.0,
                barriers=lambda p: p.sort_stages,
                bytes_read=lambda p: p.total * p.dtype_bytes,
                bytes_written=lambda p: p.total * p.dtype_bytes,
            ),
            batch=bitonic_argsort_batch,
            workgroup=bitonic_sort_workgroup,
            make_inputs=lambda rng, n: {"keys": rng.standard_normal(n)},
            run_batch=lambda inputs: bitonic_argsort_batch(inputs["keys"])[0],
            run_workgroup=_bitonic_run_workgroup,
            compare=_assert_bit_equal,
            make_params=lambda n: CostParams(m=n),
        )
    )

    # 4) Blelloch exclusive scan (RWS initialization primitive). Lock-step
    #    billing charges the full group at every tree level, hence the
    #    m*log2(m) local-op signature. Integer-valued test inputs make the
    #    tree-order and sequential-order sums bitwise identical.
    reg.register(
        KernelDef(
            name="blelloch_scan",
            description="bank-conflict-avoiding exclusive prefix sum",
            cost=CostSig(
                local_ops=lambda p: p.n_groups * 3.0 * p.m * math.log2(max(p.m, 2)),
                barriers=lambda p: 2 * math.log2(max(p.m, 2)) + 2,
                bytes_read=lambda p: p.total * p.dtype_bytes,
                bytes_written=lambda p: p.total * p.dtype_bytes,
            ),
            batch=exclusive_scan_batch,
            workgroup=blelloch_scan_workgroup,
            make_inputs=lambda rng, n: {
                "data": rng.integers(0, 8, size=n).astype(np.float64)
            },
            run_batch=lambda inputs: exclusive_scan_batch(inputs["data"])[0],
            run_workgroup=lambda wg, inputs: blelloch_scan_workgroup(wg, inputs["data"]),
            compare=_assert_bit_equal,
            make_params=lambda n: CostParams(m=n, group_size=n // 2),
        )
    )

    # 5) Tree reduction (the estimate kernel's core primitive). Max is
    #    order-independent, so parity is exact.
    reg.register(
        KernelDef(
            name="tree_reduce",
            description="log-depth tree max-reduction",
            cost=CostSig(
                local_ops=lambda p: p.n_groups * p.m * math.log2(max(p.m, 2)),
                barriers=lambda p: math.log2(max(p.m, 2)),
                bytes_read=lambda p: p.total * p.dtype_bytes,
                bytes_written=lambda p: p.n_groups * p.dtype_bytes,
            ),
            batch=max_reduce_batch,
            workgroup=tree_reduce_workgroup,
            make_inputs=lambda rng, n: {"values": rng.standard_normal(n)},
            run_batch=lambda inputs: max_reduce_batch(inputs["values"])[0],
            run_workgroup=lambda wg, inputs: np.float64(
                tree_reduce_workgroup(
                    wg, _staged_local(wg, np.asarray(inputs["values"], dtype=np.float64))
                )
            ),
            compare=_assert_bit_equal,
            make_params=lambda n: CostParams(m=n),
        )
    )

    # 6) Global estimate stage: sorted rows mean only the final reduction
    #    rounds run; N per-sub-filter estimates reduced by few groups.
    reg.register(
        KernelDef(
            name="estimate",
            description="global weighted estimate over sub-filter leaders",
            cost=CostSig(
                flops=lambda p: p.n_filters_ * (p.state_dim + 1) * 2.0,
                bytes_read=lambda p: p.n_filters_ * (p.state_dim + 1) * p.dtype_bytes,
                bytes_written=lambda p: (p.state_dim + 1) * p.dtype_bytes,
                barriers=lambda p: 8,
            ),
            batch=max_reduce_batch,
        )
    )

    # 7) Exchange routing. Pairwise: neighbour-table gathers through cached
    #    global memory. Pooled (all-to-all): two launches — supply the pool,
    #    serial top-t selection, broadcast read-back.
    reg.register(
        KernelDef(
            name="route_pairwise",
            description="ring/torus neighbour exchange via routing table",
            cost=CostSig(
                bytes_read=lambda p: (
                    p.n_groups * p.degree * p.n_exchange * (p.state_dim + 1) * p.dtype_bytes
                ),
                read_coalescing=lambda p: 0.4,  # neighbour gathers are scattered
                bytes_written=lambda p: (
                    p.n_groups * p.degree * p.n_exchange * (p.state_dim + 1) * p.dtype_bytes
                ),
                write_coalescing=lambda p: 0.6,
            ),
            batch=route_pairwise,
        )
    )
    reg.register(
        KernelDef(
            name="route_pooled",
            description="all-to-all exchange through one global pool",
            cost=CostSig(
                bytes_read=lambda p: (
                    p.n_groups * p.n_exchange * (p.state_dim + 1) * p.dtype_bytes * 2
                ),
                read_coalescing=lambda p: 0.5,
                bytes_written=lambda p: (
                    2 * p.n_groups * p.n_exchange * (p.state_dim + 1) * p.dtype_bytes
                ),
                write_coalescing=lambda p: 0.5,
                serial_ops=lambda p: (
                    p.n_groups
                    * p.n_exchange
                    * math.log2(max(p.n_groups * p.n_exchange, 2))
                    * 2.0
                ),
                launches=2,
            ),
            batch=route_pooled,
        )
    )
    reg.register(
        KernelDef(
            name="route_pooled_topk",
            description="pooled exchange, partition-based top-t selection",
            cost=CostSig(
                bytes_read=lambda p: (
                    p.n_groups * p.n_exchange * (p.state_dim + 1) * p.dtype_bytes * 2
                ),
                read_coalescing=lambda p: 0.5,
                bytes_written=lambda p: (
                    2 * p.n_groups * p.n_exchange * (p.state_dim + 1) * p.dtype_bytes
                ),
                write_coalescing=lambda p: 0.5,
                # Threshold partition is linear in the pool; only the t
                # survivors pay the log factor (vs the full n log n sort of
                # plain route_pooled).
                serial_ops=lambda p: (
                    p.n_groups * p.n_exchange
                    + p.n_exchange * math.log2(max(p.n_exchange, 2)) * 2.0
                ),
                launches=2,
            ),
            batch=route_pooled,
        )
    )

    # 8) Resampling kernels over the pooled candidate set.
    _resample_bytes = {
        "bytes_read": lambda p: p.total * p.dtype_bytes * (1 + p.state_dim),
        "read_coalescing": lambda p: p.aos_efficiency,
        "bytes_written": lambda p: p.total * p.state_dim * p.dtype_bytes,
    }
    reg.register(
        KernelDef(
            name="rws",
            description="roulette wheel selection: scan + binary search",
            cost=CostSig(
                local_ops=lambda p: p.n_groups
                * (4.0 * p.pool_ + p.m * math.log2(max(p.pool_, 2)) * 2.0),
                barriers=lambda p: 2 * p.log2m + 2,
                **_resample_bytes,
            ),
            batch=_rws_batch,
            workgroup=rws_workgroup,
            make_inputs=lambda rng, n: {
                "weights": rng.random(n) + 1e-3,
                "uniforms": rng.random(n),
            },
            run_batch=lambda inputs: _rws_batch(inputs["weights"], inputs["uniforms"])[0],
            run_workgroup=_rws_run_workgroup,
            compare=_assert_bit_equal,
            make_params=lambda n: CostParams(m=n),
        )
    )
    reg.register(
        KernelDef(
            name="vose",
            description="alias-method resampling stage (build + draws)",
            cost=CostSig(
                local_ops=lambda p: p.n_groups * (10.0 * p.pool_ + 4.0 * p.m),
                serial_ops=lambda p: p.n_groups * p.pool_ * 1.5,
                barriers=lambda p: 4 * p.log2m + 8,
                **_resample_bytes,
            ),
        )
    )
    reg.register(
        KernelDef(
            name="alias_build",
            description="parallel alias-table construction (in-place worklists)",
            cost=CostSig(
                local_ops=lambda p: p.n_groups * 10.0 * p.m,
                serial_ops=lambda p: p.n_groups * p.m * 1.5,
                barriers=lambda p: 2 * p.log2m,  # data-dependent; indicative
                bytes_read=lambda p: p.total * p.dtype_bytes,
                bytes_written=lambda p: p.total * 2 * p.dtype_bytes,
            ),
            batch=_alias_build_batch,
            workgroup=alias_build_workgroup,
            make_inputs=lambda rng, n: {"weights": rng.random(n) + 0.05},
            run_batch=_alias_build_run_batch,
            run_workgroup=lambda wg, inputs: alias_build_workgroup(wg, inputs["weights"])[:2],
            compare=_compare_alias_tables,
            make_params=lambda n: CostParams(m=n),
            check_barriers=False,  # round count depends on the weight skew
        )
    )
    reg.register(
        KernelDef(
            name="alias_sample",
            description="O(1)-per-sample alias-table draws",
            cost=CostSig(
                local_ops=lambda p: p.n_groups * 2.0 * p.m,
                barriers=lambda p: 1,
                bytes_read=lambda p: p.total * 3 * p.dtype_bytes,
                bytes_written=lambda p: p.total * p.dtype_bytes,
            ),
            batch=_alias_sample_batch,
            workgroup=alias_sample_workgroup,
            make_inputs=_alias_sample_inputs,
            run_batch=_alias_sample_run_batch,
            run_workgroup=lambda wg, inputs: alias_sample_workgroup(
                wg, inputs["prob"], inputs["alias"], inputs["u_select"], inputs["u_coin"]
            ),
            compare=_assert_bit_equal,
            make_params=lambda n: CostParams(m=n),
        )
    )
    # 9) Adaptive-allocation kernels (width-aware population layout).
    reg.register(
        KernelDef(
            name="alloc_metrics",
            description="per-sub-filter ESS + weight-mass share reductions",
            cost=CostSig(
                # Two tree reductions (sum w, sum w^2) plus the shift-exp,
                # over the live population.
                local_ops=lambda p: 4.0 * p.total,
                barriers=lambda p: 2 * p.log2m,
                bytes_read=lambda p: p.total * p.dtype_bytes,
                bytes_written=lambda p: p.n_groups * 2 * p.dtype_bytes,
            ),
            batch=_alloc_metrics_batch,
        )
    )
    reg.register(
        KernelDef(
            name="migrate_resize",
            description="grow/shrink sub-filter widths; growth draws from the pool",
            cost=CostSig(
                # Worst case: every slot of every row migrates — one
                # scattered particle gather plus the weight rewrite.
                bytes_read=lambda p: p.total * (p.state_dim + 1) * p.dtype_bytes,
                read_coalescing=lambda p: p.aos_efficiency,
                bytes_written=lambda p: p.total * (p.state_dim + 1) * p.dtype_bytes,
                write_coalescing=lambda p: p.aos_efficiency,
                serial_ops=lambda p: float(p.n_groups),
            ),
            batch=_migrate_resize_batch,
        )
    )
    reg.register(
        KernelDef(
            name="metropolis",
            description="collective-free Metropolis resampling (Murray 2012)",
            cost=CostSig(
                local_ops=lambda p: (
                    p.n_groups * 4.0 * p.m * default_metropolis_steps(p.pool_)
                ),
                barriers=lambda p: 1,  # only the weight staging barrier
                **_resample_bytes,
            ),
            batch=metropolis_resample_batch,
            workgroup=metropolis_workgroup,
            make_inputs=_metropolis_inputs,
            run_batch=lambda inputs: metropolis_resample_batch(
                inputs["weights"], inputs["u_prop"], inputs["u_acc"]
            )[0],
            run_workgroup=lambda wg, inputs: metropolis_workgroup(
                wg, inputs["weights"], inputs["u_prop"], inputs["u_acc"]
            ),
            compare=_assert_bit_equal,
            make_params=lambda n: CostParams(m=n),
        )
    )
    # 10) Execution-form exemplars. ``logsumexp`` is the numerically-
    #     sensitive weight-mass reduction (DRNA signal, resample
    #     normalization); its compiled form drops the degenerate-row guard
    #     passes and JIT-compiles under Numba. ``fused_step`` is the whole
    #     sampling→weight→sort→estimate→resample hot path merged into one
    #     pass over the ``(F, m, d)`` slabs — compiled-only, selected by
    #     ``ExecutionPolicy(prefer=("compiled", ...))``.
    reg.register(
        KernelDef(
            name="logsumexp",
            description="per-row log-sum-exp weight-mass reduction",
            cost=CostSig(
                local_ops=lambda p: 3.0 * p.total,
                barriers=lambda p: 2 * p.log2m,
                bytes_read=lambda p: p.total * p.dtype_bytes,
                bytes_written=lambda p: p.n_groups * p.dtype_bytes,
            ),
            batch=_logsumexp_batch,
            forms={"compiled": _logsumexp_compiled},
            make_inputs=lambda rng, n: {"log_weights": rng.standard_normal((4, n))},
        )
    )
    reg.register(
        KernelDef(
            name="fused_step",
            description="fused sample+weight+sort+estimate+resample step",
            cost=CostSig(
                flops=lambda p: p.total * (model_flops_per_particle(p.state_dim)
                                           + 4.0 + p.log2m * 2.0),
                bytes_read=lambda p: p.total * (p.state_dim + 1) * p.dtype_bytes * 2,
                bytes_written=lambda p: p.total * (p.state_dim + 1) * p.dtype_bytes,
                rng_kernel=True,
            ),
            forms={"compiled": _fused_step_compiled},
        )
    )
    return reg


def _rws_batch(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Batched RWS over explicit uniforms (lazy import avoids a cycle)."""
    from repro.resampling.rws import rws_indices_batch

    return rws_indices_batch(weights, uniforms)


def _alloc_metrics_batch(log_weights: np.ndarray):
    """Batched allocation metrics (lazy import avoids a cycle)."""
    from repro.allocation.metrics import subfilter_ess, weight_mass_share

    return subfilter_ess(log_weights), weight_mass_share(log_weights)


def _migrate_resize_batch(states, log_weights, widths, new_widths,
                          pooled_states=None, pooled_logw=None,
                          resampled=None, resampler=None, rng=None) -> int:
    """Width migration (lazy import avoids a cycle); returns particles moved."""
    import numpy as _np

    from repro.allocation.migrate import grow_from_pool, resize_block

    if pooled_logw is None or resampler is None:
        return resize_block(states, log_weights, widths, new_widths)
    if resampled is None:
        resampled = _np.zeros(_np.asarray(log_weights).shape[0], dtype=bool)
    return grow_from_pool(states, log_weights, widths, new_widths,
                          pooled_states, pooled_logw, resampled, resampler, rng)


def _alias_build_batch(weights: np.ndarray):
    from repro.resampling.vose import build_alias_table_parallel

    return build_alias_table_parallel(weights)


def _alias_sample_batch(prob, alias, u_select, u_coin):
    from repro.resampling.vose import alias_sample

    return alias_sample(prob, alias, u_select, u_coin)


def _logsumexp_batch(log_weights: np.ndarray) -> np.ndarray:
    """Reference per-row logsumexp (lazy import avoids a cycle)."""
    from repro.allocation.metrics import row_logsumexp

    return row_logsumexp(np.atleast_2d(log_weights))


def _logsumexp_rows(lw: np.ndarray) -> np.ndarray:
    """Loop form of the row logsumexp, written to Numba's ``nopython`` subset."""
    F, m = lw.shape
    out = np.empty(F, dtype=np.float64)
    for f in range(F):
        peak = lw[f, 0]
        for j in range(1, m):
            if lw[f, j] > peak:
                peak = lw[f, j]
        if not (-np.inf < peak < np.inf):
            out[f] = -np.inf
        else:
            total = 0.0
            for j in range(m):
                total += np.exp(lw[f, j] - peak)
            out[f] = peak + np.log(total)
    return out


_LOGSUMEXP_JIT: Callable | None = None


def _logsumexp_compiled(log_weights: np.ndarray) -> np.ndarray:
    """Compiled logsumexp form: ``@njit`` loops under Numba, fused NumPy else.

    Both variants reduce in float64 regardless of the input dtype (the
    ``DtypePolicy`` contract for weight reductions). The NumPy fallback
    performs the reference's exact operation sequence minus its degenerate-
    row guard passes, so float64 results stay bit-identical on finite rows.
    """
    lw = np.atleast_2d(np.asarray(log_weights, dtype=np.float64))
    from repro.kernels.forms import numba_available

    if numba_available():
        global _LOGSUMEXP_JIT
        if _LOGSUMEXP_JIT is None:
            from repro.kernels.forms import maybe_njit

            _LOGSUMEXP_JIT = maybe_njit(_logsumexp_rows)
        return _LOGSUMEXP_JIT(np.ascontiguousarray(lw))
    peak = lw.max(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = peak + np.log(np.exp(lw - peak[..., None]).sum(axis=-1))
    return np.where(np.isfinite(peak), out, -np.inf)


def _fused_step_compiled(ctx, state):
    """One fused filter step (lazy import avoids a kernels→engine cycle)."""
    from repro.engine.fused import fused_step_batch

    return fused_step_batch(ctx, state)


_DEFAULT: KernelRegistry | None = None


def default_registry() -> KernelRegistry:
    """The process-wide registry holding the paper's kernel set."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = register_default_kernels(KernelRegistry())
    return _DEFAULT


def kernel_cost_attrs(name: str, params: CostParams,
                      registry: KernelRegistry | None = None) -> dict | None:
    """Span attributes for one dispatch of kernel *name* at shape *params*.

    The telemetry spine attaches the registered :class:`CostSig`'s analytic
    flops / bytes to every ``kernel`` span it records, so a trace carries
    arithmetic-intensity context next to the measured wall time. Returns
    ``None`` for unregistered kernels (spans stay attribute-free rather than
    failing the dispatch that produced them).
    """
    reg = registry if registry is not None else default_registry()
    if name not in reg:
        return None
    try:
        wl = reg.workload(name, params)
    except Exception:  # pragma: no cover - a cost sig must never break tracing
        return None
    return {
        "flops": wl.flops,
        "bytes_read": wl.bytes_read,
        "bytes_written": wl.bytes_written,
        "launches": wl.launches,
    }
