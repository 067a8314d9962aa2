"""Telemetry through the engine hooks: spans, cost attrs, error isolation."""

import warnings

import numpy as np
import pytest

from repro.backends import SequentialDistributedParticleFilter
from repro.core import DistributedFilterConfig, DistributedParticleFilter
from repro.kernels.registry import CostParams, kernel_cost_attrs
from repro.models import LinearGaussianModel
from repro.sessions import Cohort, FilterSession
from repro.telemetry import Tracer, reset_hook_error_warnings


def _model():
    return LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])


def _cfg(**kw):
    base = dict(n_particles=16, n_filters=4, n_exchange=2, seed=0)
    base.update(kw)
    return DistributedFilterConfig(**base)


def _run(pf, steps=3):
    pf.initialize()
    return np.array([pf.step(np.array([0.1 * k])) for k in range(steps)])


def _traced_filter(cls, steps=2):
    pf = cls(_model(), _cfg())
    pf.tracer.enabled = True
    _run(pf, steps)
    return pf.tracer.spans


def _traced_cohort(steps=2, ready=(2, 2), **kw):
    """A two-session cohort; tick ``k`` steps the first ``ready[k]``."""
    tracer = Tracer(enabled=True)
    cohort = Cohort("key", _model(), _cfg(**kw), tracer=tracer)
    sessions = [FilterSession(f"s{i}", _model(), _cfg(seed=i, **kw)) for i in range(2)]
    for sess in sessions:
        cohort.attach(sess)
    for k in range(steps):
        r = ready[k]
        cohort.step(sessions[:r], [np.array([0.1 * k])] * r)
    return tracer.spans


#: every owner of a round, traced for two steps.
TRACED_OWNERS = {
    "solo": lambda: _traced_filter(DistributedParticleFilter),
    "oracle": lambda: _traced_filter(SequentialDistributedParticleFilter),
    "cohort": _traced_cohort,
}


class RaisingHook:
    """An observer that always blows up."""

    def on_step_start(self, state):
        raise RuntimeError("boom")

    def on_stage_start(self, name, state):
        raise RuntimeError("boom")

    def on_stage_end(self, name, state, elapsed):
        raise RuntimeError("boom")

    def on_step_end(self, state):
        raise RuntimeError("boom")


class TestVectorizedTracing:
    def test_disabled_by_default_and_spans_empty(self):
        pf = DistributedParticleFilter(_model(), _cfg())
        assert pf.tracer.enabled is False
        _run(pf)
        assert pf.tracer.spans == []
        # Legacy accessors still fully populated.
        assert pf.timer.seconds and pf.kernel_seconds

    def test_enabled_emits_step_stage_kernel_hierarchy(self):
        pf = DistributedParticleFilter(_model(), _cfg())
        pf.tracer.enabled = True
        _run(pf, steps=2)
        kinds = {s.kind for s in pf.tracer.spans}
        assert kinds == {"step", "stage", "kernel"}
        steps = [s for s in pf.tracer.spans if s.kind == "step"]
        assert [s.name for s in steps] == ["step 0", "step 1"]
        stage_names = {s.name for s in pf.tracer.spans if s.kind == "stage"}
        assert {"sampling", "sort", "estimate", "exchange"} <= stage_names
        # Stages nest inside their step.
        s0 = steps[0]
        inner = [s for s in pf.tracer.spans
                 if s.kind == "stage" and s0.start <= s.start and s.end <= s0.end]
        assert inner

    @pytest.mark.parametrize("owner", sorted(TRACED_OWNERS))
    def test_kernel_spans_carry_cost_attrs(self, owner):
        kernels = [s for s in TRACED_OWNERS[owner]() if s.kind == "kernel"]
        assert kernels
        costed = [s for s in kernels if s.attrs and "flops" in s.attrs]
        assert len(costed) == len(kernels), \
            "registered kernels must carry CostSig-derived attrs"
        for s in costed:
            assert s.attrs["flops"] >= 0
            assert {"bytes_read", "bytes_written", "launches"} <= set(s.attrs)

    def test_cohort_kernels_are_costed_at_each_ticks_rows(self):
        # Two sessions of F=4 rows step, then one: the sort is charged at
        # 8 groups, then 4.
        sorts = [s for s in _traced_cohort(ready=(2, 1))
                 if s.kind == "kernel" and s.name == "sort"]
        assert len(sorts) == 2
        itemsize = np.dtype(_cfg().dtype).itemsize  # states, mixed policy
        for span, rows in zip(sorts, (8, 4)):
            params = CostParams(m=16, state_dim=1, n_groups=rows,
                                dtype_bytes=itemsize, n_exchange=2)
            assert span.attrs == kernel_cost_attrs("sort", params)

    def test_oracle_sort_is_costed_at_the_rows_each_call_sorts(self):
        # The oracle sorts one row per kernel call; its per-step sort bytes
        # must add up to the vectorized filter's one call over all F rows.
        def sort_bytes(cls):
            pf = cls(_model(), _cfg(n_particles=8, n_filters=4))
            pf.tracer.enabled = True
            _run(pf, steps=1)
            sorts = [s for s in pf.tracer.spans if s.kind == "kernel" and s.name == "sort"]
            return len(sorts), sum(s.attrs["bytes_read"] for s in sorts)

        assert sort_bytes(DistributedParticleFilter) == (1, 256)
        assert sort_bytes(SequentialDistributedParticleFilter) == (4, 256)

    def test_compiled_cohort_step_spans_name_their_execution(self):
        steps = [s for s in _traced_cohort(execution="compiled") if s.kind == "step"]
        assert len(steps) == 2
        for s in steps:
            assert s.attrs["execution"] == "compiled"
            assert s.attrs["dtype_policy"] == "mixed"

    def test_tracing_does_not_change_estimates(self):
        plain = _run(DistributedParticleFilter(_model(), _cfg()))
        traced_pf = DistributedParticleFilter(_model(), _cfg())
        traced_pf.tracer.enabled = True
        np.testing.assert_array_equal(plain, _run(traced_pf))

    def test_sequential_oracle_traces_too(self):
        pf = SequentialDistributedParticleFilter(_model(), _cfg())
        pf.tracer.enabled = True
        _run(pf, steps=2)
        assert {s.kind for s in pf.tracer.spans} >= {"step", "stage"}


class TestHookErrorIsolation:
    def test_raising_hook_does_not_corrupt_the_step(self):
        reset_hook_error_warnings()
        clean = _run(DistributedParticleFilter(_model(), _cfg()))
        pf = DistributedParticleFilter(_model(), _cfg())
        pf.pipeline.add_hook(RaisingHook())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = _run(pf)
        np.testing.assert_array_equal(clean, out)
        # Every callback of every stage raised; all were counted.
        assert pf.telemetry_errors > 0
        assert pf.pipeline.telemetry_errors == pf.telemetry_errors
        # Warned once per HookClass.method site, not once per failure.
        sites = {str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)}
        assert 1 <= len(sites) <= 4
        reset_hook_error_warnings()

    def test_raising_hook_keeps_other_hooks_working(self):
        reset_hook_error_warnings()
        pf = DistributedParticleFilter(_model(), _cfg())
        pf.pipeline.hooks.insert(0, RaisingHook())  # before TimerHook
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _run(pf)
        assert pf.timer.seconds and pf.kernel_seconds
        assert pf.timer.fractions()
        reset_hook_error_warnings()

    def test_stage_exceptions_still_propagate(self):
        # Isolation covers observers only — a failing *stage* is a real error.
        class BrokenStage:
            name = "sampling"

            def run(self, ctx, state):
                raise RuntimeError("stage died")

        pf = DistributedParticleFilter(_model(), _cfg())
        pf.initialize()
        pf.pipeline.stages[0] = BrokenStage()
        with pytest.raises(RuntimeError, match="stage died"):
            pf.step(np.array([0.0]))


def test_phase_timer_fractions_empty_when_no_time():
    from repro.metrics import PhaseTimer

    timer = PhaseTimer()
    assert timer.fractions() == {}
    with timer.phase("a"):
        pass
    timer.reset()
    assert timer.fractions() == {}
