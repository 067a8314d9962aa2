"""The stage protocol: Algorithm 2 as an ordered list of named kernels.

One filtering round is the fixed kernel sequence

    sampling -> heal -> sort -> estimate -> exchange -> resample

(the paper's Section V kernel pipeline plus the numerical self-healing pass
added in docs/robustness.md). A :class:`Stage` is one element of that
sequence; every backend — vectorized, loop-based oracle, multiprocess
workers, device-simulated — supplies stage *implementations* but shares the
stage *names*, so per-stage timings, device cost accounting and resilience
monitoring are comparable across backends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.engine.state import FilterState

#: Canonical stage names, in execution order. Hooks key their per-stage
#: accounting by these names; the device cost model's kernel names are a
#: subset (``heal`` is free on-device, ``rand`` is folded into ``sampling``).
#: ``allocate`` — adaptive width re-apportionment — is a strict no-op under
#: the fixed allocation policy.
STAGE_NAMES = ("sampling", "heal", "sort", "estimate", "exchange", "resample",
               "allocate")


@runtime_checkable
class Stage(Protocol):
    """One kernel of the filtering round.

    ``run`` mutates *state* in place; anything a stage must pass to a later
    stage travels through the :class:`FilterState` scratch slots.
    """

    name: str

    def run(self, ctx: "ExecutionContext", state: FilterState) -> None: ...


@dataclass
class ExecutionContext:
    """Everything a stage needs besides the mutable state.

    The context is built once by the owning filter and shared by all its
    stages: the model, the configuration, the RNG stream, the resampler and
    resampling policy, and the routing tables of the exchange topology.

    ``owner`` is the filter object driving the pipeline, when there is one.
    Vectorized stages dispatch through the owner's legacy kernel methods
    (``_heal_population``/``_exchange``/``_resample``) when present so that
    subclasses overriding those methods — the related-work variants in
    :mod:`repro.baselines.distributed_variants` — keep working unchanged.
    Contexts without an owner (session cohorts, multiprocess workers) run
    the canonical kernel bodies directly.
    """

    model: object
    config: object
    rng: object
    resampler: object
    policy: object
    dtype: np.dtype
    topology: object = None
    table: np.ndarray | None = None
    mask: np.ndarray | None = None
    owner: object = None
    registry: object = None
    #: the :class:`~repro.allocation.AllocationPolicy` deciding per-round
    #: widths; ``None`` (or the fixed policy) keeps widths frozen.
    alloc_policy: object = None
    #: the :class:`~repro.kernels.forms.ExecutionPolicy` selecting which
    #: execution form each kernel dispatch resolves to; ``None`` means the
    #: historical behaviour (always the reference batch form).
    exec_policy: object = None
    #: the resolved :class:`~repro.core.dtypes.DtypePolicy` for this run;
    #: ``None`` means the historical mixed behaviour (state at ``dtype``,
    #: float64 weights and reductions).
    dtype_policy: object = None
    #: resampling stashes pre-resample ESS / mass share for the allocation
    #: stage and telemetry hook; a round where neither reads them (a worker,
    #: a fixed-allocation cohort) turns this off.
    alloc_metrics: bool = True
    #: rows per independent filter: a session cohort stacks ``F //
    #: block_rows`` filters, and heal's donor scan, the estimate, the mass
    #: share and allocation stay inside each block. ``None``: one block of
    #: all rows (a solo filter or a worker's shard).
    block_rows: int | None = None
    #: the cohort's block-ordered sessions this round (``None`` when solo);
    #: allocation asks each one's policy and heal credits its counters.
    sessions: list | None = None

    def __post_init__(self):
        self._form_cache: dict[str, object] = {}

    def kernel_registry(self):
        """The kernel registry stages dispatch through (lazily defaulted)."""
        if self.registry is None:
            from repro.kernels.registry import default_registry

            self.registry = default_registry()
        return self.registry

    def weight_dtype(self) -> np.dtype:
        """The dtype carried log-weights use under the active dtype policy."""
        if self.dtype_policy is None:
            return np.dtype(np.float64)
        return self.dtype_policy.weight

    def kernel_impl(self, name: str):
        """The callable the active execution policy selects for *name*.

        Selection walks the policy's form preference once per kernel name
        and is then cached — ``invoke_kernel`` stays one dict lookup on the
        hot path. Without a policy (or when selection yields nothing) this
        is exactly the old ``registry.batch(name)`` resolution, including
        its ``ValueError`` for kernels with no batch implementation.
        """
        impl = self._form_cache.get(name)
        if impl is None:
            registry = self.kernel_registry()
            if self.exec_policy is None:
                impl = registry.batch(name)
            else:
                selected = self.exec_policy.select(registry.get(name))
                impl = registry.batch(name) if selected is None else selected[1]
            self._form_cache[name] = impl
        return impl

    def invoke_kernel(self, state: FilterState, name: str, *args, rows=None, **kwargs):
        """Run a registered kernel and record ``(name, elapsed, start, rows)``.

        Pure routing — the returned value is exactly what the selected
        implementation returns — plus a timing event appended to
        ``state.kernel_events``, which a
        :class:`~repro.engine.hooks.KernelTimingHook` drains into per-kernel
        seconds (and, when tracing, kernel spans with real timestamps) on
        every backend uniformly. *rows* is the number of sub-filter rows the
        call covers when that is not all of the state's (the loop oracle
        sorts one row per call); the span is costed at that many groups.
        Which implementation runs is decided by the context's
        :class:`~repro.kernels.forms.ExecutionPolicy` (see
        :meth:`kernel_impl`); the event contract is form-independent.
        """
        impl = self.kernel_impl(name)
        start = time.perf_counter()
        out = impl(*args, **kwargs)
        state.kernel_events.append((name, time.perf_counter() - start, start, rows))
        return out
