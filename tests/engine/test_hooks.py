"""Stage hooks: observation without participation."""

import cProfile
import dataclasses
import pstats

import pytest

from repro.backends import DeviceSimulatedFilter
from repro.backends.device_backend import DeviceCostHook
from repro.core import DistributedFilterConfig, DistributedParticleFilter
from repro.engine import STAGE_NAMES, RecordingHook, StageHook, TimerHook
from repro.models import LinearGaussianModel
from repro.prng import make_rng
from tests.speed import best_block_seconds


def _model():
    return LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])


def _cfg(**kw):
    base = dict(n_particles=16, n_filters=4, topology="ring", seed=3)
    base.update(kw)
    return DistributedFilterConfig(**base)


def _run(pf, n=2, seed=5):
    model = pf.inner.model if hasattr(pf, "inner") else pf.model
    truth = model.simulate(n, make_rng("numpy", seed=seed))
    pf.initialize()
    for k in range(n):
        pf.step(truth.measurements[k])
    return truth


class TestHookEvents:
    def test_event_sequence(self):
        model = _model()
        pf = DistributedParticleFilter(model, _cfg())
        rec = pf.pipeline.add_hook(RecordingHook())
        _run(pf, n=1)
        kinds = [e[0] for e in rec.events]
        assert kinds[0] == "step_start" and kinds[-1] == "step_end"
        starts = [e[1] for e in rec.events if e[0] == "start"]
        ends = [e[1] for e in rec.events if e[0] == "end"]
        assert tuple(starts) == tuple(ends) == STAGE_NAMES
        for e in rec.events:
            if e[0] == "end":
                assert e[2] >= 0.0

    def test_hook_sees_state_snapshot(self):
        model = _model()
        pf = DistributedParticleFilter(model, _cfg())
        seen = {}

        class Peek(StageHook):
            def on_stage_end(self, name, state, elapsed):
                snap = state.snapshot()
                seen[name] = (snap.k, state.n_filters, state.n_particles)

        pf.pipeline.add_hook(Peek())
        _run(pf, n=1)
        assert set(seen) == set(STAGE_NAMES)
        assert all(v == (0, 4, 16) for v in seen.values())

    def test_timer_hook_populates_canonical_phases(self):
        model = _model()
        pf = DistributedParticleFilter(model, _cfg())
        _run(pf, n=2)
        for name in STAGE_NAMES:
            assert name in pf.timer.seconds
        assert pf.timer.total() > 0.0

    def test_standalone_timer_hook(self):
        hook = TimerHook()
        hook.on_stage_start("sampling", None)
        hook.on_stage_end("sampling", None, 0.0)
        assert hook.timer.seconds["sampling"] >= 0.0


class TestDeviceCostHook:
    def test_charges_round_cost_per_step(self):
        model = _model()
        sim = DeviceSimulatedFilter(DistributedParticleFilter(model, _cfg()), "gtx-580")
        _run(sim, n=3)
        assert sim.simulated_seconds == pytest.approx(3 * sim.round_cost.total_seconds)
        # Per-kernel accumulation matches the cost model's breakdown keys.
        assert set(sim.simulated_kernel_seconds) == set(sim.round_cost.seconds)
        for k, v in sim.round_cost.seconds.items():
            assert sim.simulated_kernel_seconds[k] == pytest.approx(3 * v)

    def test_round_cost_recomputes_on_config_change(self):
        """Satellite: a config swap after construction invalidates the cache."""
        model = _model()
        sim = DeviceSimulatedFilter(DistributedParticleFilter(model, _cfg()), "gtx-580")
        before = sim.round_cost.total_seconds
        sim.inner.config = dataclasses.replace(sim.inner.config, n_particles=256)
        after = sim.round_cost.total_seconds
        assert after > before

    def test_update_rate_guarded_against_zero_total(self):
        """Satellite: an all-zero cost reports inf, not ZeroDivisionError."""
        model = _model()
        sim = DeviceSimulatedFilter(DistributedParticleFilter(model, _cfg()), "gtx-580")
        cost = sim.round_cost
        cost.seconds = {k: 0.0 for k in cost.seconds}
        assert sim.simulated_update_rate_hz == float("inf")

    def test_unpriced_stage_charges_nothing(self):
        hook = DeviceCostHook(lambda: type("C", (), {"seconds": {"sampling": 1.0}})())
        hook.on_stage_end("heal", None, 0.0)
        assert hook.simulated_seconds == 0.0


class TestHookOverhead:
    def test_noop_hooks_are_cheap(self):
        """A handful of no-op observers must not dominate the round."""
        model = _model()
        cfg = _cfg(n_particles=256, n_filters=16)
        truth = model.simulate(30, make_rng("numpy", seed=5))

        def stepper(n_hooks):
            pf = DistributedParticleFilter(model, cfg)
            pf.pipeline.hooks = [StageHook() for _ in range(n_hooks)]
            pf.initialize()
            return lambda k: pf.step(truth.measurements[k])

        best = best_block_seconds({"bare": stepper(0), "hooked": stepper(4)},
                                  warmup=3, block=9)
        # Generous CI margin; locally the overhead is well under 5%.
        assert best["hooked"] <= best["bare"] * 1.5

    def test_disabled_tracer_adds_few_calls_and_no_spans(self):
        """The default hooks hold the filter's tracer, disabled until someone
        traces. Carrying it may cost at most 5% more Python function calls
        per round than hooks without a tracer, and must record nothing.
        Calls, not seconds: the count repeats exactly from run to run, while
        a 5% wall-time bound drowns in a shared host's noise."""
        model = _model()
        truth = model.simulate(30, make_rng("numpy", seed=5))

        def profiled(detach):
            pf = DistributedParticleFilter(model, _cfg(n_particles=256, n_filters=16))
            traced = [h for h in pf.pipeline.hooks if hasattr(h, "tracer")]
            assert traced and all(h.tracer is pf.tracer for h in traced)
            if detach:
                for hook in traced:
                    hook.tracer = None
            pf.initialize()
            pf.step(truth.measurements[0])  # first round: lazy setup
            prof = cProfile.Profile()
            for z in truth.measurements[1:]:
                prof.runcall(pf.step, z)
            return pstats.Stats(prof).total_calls, pf

        attached, pf = profiled(detach=False)
        detached, _ = profiled(detach=True)
        assert not pf.tracer.enabled
        assert len(pf.tracer.spans) == 0
        assert attached <= detached * 1.05, (
            f"a disabled tracer adds {attached / detached - 1:+.2%} calls per round")
