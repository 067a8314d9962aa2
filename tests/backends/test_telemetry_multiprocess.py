"""Multiprocess telemetry: merged timelines, fallback counting, isolation.

The master's phase-1 header tells workers whether to trace; workers ship
their spans back in the phase-2 reply, and the master re-bases them onto its
own clock — so one Chrome trace shows the master plus every worker with
stage/kernel spans on an aligned timeline, for both transports. Worker-side
hook failures surface on the master's ``telemetry_errors``; shm payloads
that bypass the slab are counted in ``transport_fallbacks``.
"""

import warnings

import numpy as np
import pytest

from repro.backends import MultiprocessDistributedParticleFilter
from repro.core import DistributedFilterConfig
from repro.models import LinearGaussianModel
from repro.resilience import FaultPlan
from repro.telemetry import chrome_trace, validate_trace_events


def lg_model():
    return LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])


def cfg(**kw):
    base = dict(n_particles=16, n_filters=8, estimator="weighted_mean",
                seed=3, n_exchange=2)
    base.update(kw)
    return DistributedFilterConfig(**base)


@pytest.mark.parametrize("transport", ["pipe", "shm"])
class TestMergedTimeline:
    def test_one_timeline_master_plus_workers(self, transport):
        n_workers, steps = 4, 3
        with MultiprocessDistributedParticleFilter(
            lg_model(), cfg(), n_workers=n_workers, transport=transport
        ) as pf:
            pf.tracer.enabled = True
            for k in range(steps):
                pf.step(np.array([0.1 * k]))
            spans, labels = list(pf.tracer.spans), dict(pf.tracer.labels)
            counters = dict(pf.tracer.counters)

        # One process track per participant, named.
        pids = {s.pid for s in spans}
        assert len(pids) == n_workers + 1
        assert set(labels.values()) == {"master"} | {
            f"worker-{w}" for w in range(n_workers)}

        # Master contributes step + estimate/exchange stages; workers
        # contribute their local stages and kernel spans.
        master_pid = next(p for p, name in labels.items() if name == "master")
        master_names = {s.name for s in spans if s.pid == master_pid}
        assert {"estimate", "exchange"} <= master_names
        assert any(s.kind == "step" for s in spans if s.pid == master_pid)
        worker_stage = {s.name for s in spans
                        if s.pid != master_pid and s.kind == "stage"}
        # The worker's pool assembly and (weighted mean) estimate partials
        # are spans too, so traced worker time is not charged to the master.
        assert {"sampling", "heal", "sort", "exchange", "estimate",
                "resample"} <= worker_stage
        assert any(s.kind == "kernel" for s in spans if s.pid != master_pid)

        # Clock alignment: every worker span falls inside the master's run
        # window (steps take milliseconds; misaligned clocks would be off by
        # the process uptime, i.e. seconds).
        t0 = min(s.start for s in spans if s.pid == master_pid)
        t1 = max(s.end for s in spans if s.pid == master_pid)
        for s in spans:
            assert t0 - 0.5 <= s.start and s.end <= t1 + 0.5, (s.name, s.pid)

        # And the whole thing is a valid Chrome trace.
        validate_trace_events(chrome_trace(spans, counters, labels))

    def test_tracing_does_not_change_estimates(self, transport):
        def run(trace):
            with MultiprocessDistributedParticleFilter(
                lg_model(), cfg(), n_workers=2, transport=transport
            ) as pf:
                pf.tracer.enabled = trace
                return np.array([pf.step(np.array([0.1 * k])) for k in range(4)])

        np.testing.assert_array_equal(run(False), run(True))

    def test_disabled_tracer_ships_no_spans(self, transport):
        with MultiprocessDistributedParticleFilter(
            lg_model(), cfg(), n_workers=2, transport=transport
        ) as pf:
            for k in range(2):
                pf.step(np.array([0.1 * k]))
            assert pf.tracer.spans == []
            # Legacy accessors still populated from the phase-2 replies.
            assert pf.timer.seconds and pf.kernel_seconds


class TestWorkerHookIsolation:
    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_raising_worker_hook_surfaces_on_master(self, transport, monkeypatch):
        # fork start method: patching the hook class here patches it inside
        # the workers too.
        from repro.resilience.monitor import HealMonitorHook

        def boom(self, name, state):
            raise RuntimeError("observer broke in the worker")

        monkeypatch.setattr(HealMonitorHook, "on_stage_start", boom)
        clean = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with MultiprocessDistributedParticleFilter(
                lg_model(), cfg(), n_workers=2, transport=transport
            ) as pf:
                ests = np.array([pf.step(np.array([0.1 * k])) for k in range(3)])
                assert pf.telemetry_errors > 0
                assert pf.tracer.counters["telemetry_errors"] > 0
        monkeypatch.undo()
        with MultiprocessDistributedParticleFilter(
            lg_model(), cfg(), n_workers=2, transport=transport
        ) as pf:
            clean = np.array([pf.step(np.array([0.1 * k])) for k in range(3)])
            assert pf.telemetry_errors == 0
        # The raising observer never perturbed the filtering output.
        np.testing.assert_array_equal(ests, clean)


class TestTransportFallbackCounting:
    def test_healed_wider_torus_falls_back_and_is_counted(self):
        # recv slabs are sized to the unhealed torus (4 neighbours); killing
        # a block and bridging around it gives survivors a 5th neighbour, so
        # the routed width outgrows recv_cap and phase-2 goes inline.
        config = cfg(n_filters=16, topology="torus")
        plan = FaultPlan(seed=0).kill(worker=1, step=2)
        kw = dict(n_workers=4, fault_plan=plan, on_failure="heal",
                  recv_timeout=15.0)
        with MultiprocessDistributedParticleFilter(
            lg_model(), config, transport="shm", **kw
        ) as pf:
            for k in range(6):
                pf.step(np.array([0.1 * k]))
            table, _ = pf._healer.neighbor_table()
            assert table.shape[1] > 4  # healed wider than the slab capacity
            assert pf.transport_fallbacks > 0
            assert pf.tracer.counters["transport_fallbacks"] \
                == pf.transport_fallbacks
            # The channel-level counters agree with the master's total.
            chan_total = sum(c.fallbacks for c in pf._chans if c is not None)
            assert chan_total == pf.transport_fallbacks

        # The pipe transport's inline form is the native path, never a
        # fallback.
        with MultiprocessDistributedParticleFilter(
            lg_model(), config, transport="pipe", **kw
        ) as pf:
            for k in range(6):
                pf.step(np.array([0.1 * k]))
            assert pf.transport_fallbacks == 0
            assert "transport_fallbacks" not in pf.tracer.counters

    def test_no_fallbacks_on_the_unhealed_fast_path(self):
        with MultiprocessDistributedParticleFilter(
            lg_model(), cfg(), n_workers=2, transport="shm"
        ) as pf:
            for k in range(4):
                pf.step(np.array([0.1 * k]))
            assert pf.transport_fallbacks == 0
