"""What a worker computes and ships per round, driven in-process.

The worker loop runs against a fake channel, so the test sees each reply
exactly as the worker hands it to its transport. Estimate partials are
computed and shipped only for the weighted-mean estimator, and the
allocation metrics the resample stage can stash are never computed on a
worker, which has no allocation stage to read them.
"""

import numpy as np
import pytest

from repro.backends import multiprocess
from repro.core import DistributedFilterConfig
from repro.engine import round as engine_round
from repro.engine.state import FilterState
from repro.models import LinearGaussianModel
from repro.telemetry.tracer import spans_from_wire

F, M, T = 4, 8, 2


class FakeChannel:
    """Scripted worker channel that records every reply."""

    def __init__(self, script):
        self.script = list(script)
        self.sent, self.phase1, self.phase2 = [], [], []

    def recv(self):
        return self.script.pop(0)

    def send(self, obj):
        self.sent.append(obj)

    def reply_phase1(self, k, send_states, send_logw, best_states, best_logw,
                     partial, heal_stats, alloc=None):
        self.phase1.append(None if partial is None else np.array(partial))

    def reply_phase2(self, stage_seconds, kernel_seconds, telemetry=None):
        self.phase2.append(telemetry)

    def close(self):
        pass


class SpyState(FilterState):
    """Records every non-``None`` assignment to ``round_ess``."""

    ess_writes = 0

    def __setattr__(self, name, value):
        if name == "round_ess" and value is not None:
            type(self).ess_writes += 1
        super().__setattr__(name, value)


def run_worker(estimator, monkeypatch, rounds=2, trace=True):
    # The worker's state is built by its engine Round.
    monkeypatch.setattr(engine_round, "FilterState", SpyState)
    SpyState.ess_writes = 0
    model = LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])
    config = DistributedFilterConfig(n_particles=M, n_filters=F, n_exchange=T,
                                     estimator=estimator, seed=3)
    script = [("init",)]
    rng = np.random.default_rng(0)
    for k in range(rounds):
        script.append(("phase1", np.array([0.1 * k]), None, k, T, trace, None))
        # Ring: two neighbours x t particles each; one corrupted slot.
        recv_states = rng.standard_normal((F, 2 * T, 1))
        recv_states[0, 0, 0] = np.nan
        script.append(("phase2", recv_states, np.zeros((F, 2 * T))))
    script += [("snapshot",), ("stop",)]
    chan = FakeChannel(script)
    multiprocess._worker_loop(chan, model, config, np.arange(F), worker_id=0)
    errors = [m for m in chan.sent if isinstance(m[0], str) and m[0] == "error"]
    assert not errors, errors[0][1]
    return chan


@pytest.mark.parametrize("estimator", ["weighted_mean", "max_weight"])
def test_partials_ship_only_for_the_weighted_mean(estimator, monkeypatch):
    chan = run_worker(estimator, monkeypatch)
    assert len(chan.phase1) == 2
    for partial in chan.phase1:
        if estimator == "max_weight":
            assert partial is None
        else:
            assert partial.shape == (F, 1 + 2) and partial.dtype == np.float64
            assert np.isfinite(partial).all()


@pytest.mark.parametrize("estimator", ["weighted_mean", "max_weight"])
def test_worker_never_captures_allocation_metrics(estimator, monkeypatch):
    run_worker(estimator, monkeypatch)
    assert SpyState.ess_writes == 0


@pytest.mark.parametrize("estimator", ["weighted_mean", "max_weight"])
def test_corrupt_received_particles_are_never_resampled(estimator, monkeypatch):
    chan = run_worker(estimator, monkeypatch)
    _, states, logw, *_ = chan.sent[-2]
    assert states.shape == (F, M, 1) and np.isfinite(states).all()


@pytest.mark.parametrize("estimator", ["weighted_mean", "max_weight"])
def test_pool_and_partials_run_inside_worker_stage_spans(estimator, monkeypatch):
    chan = run_worker(estimator, monkeypatch)
    for telemetry in chan.phase2:
        stages = {s.name for s in spans_from_wire(telemetry["spans"], 0.0)
                  if s.kind == "stage"}
        assert {"sampling", "heal", "sort", "exchange", "resample"} <= stages
        assert ("estimate" in stages) == (estimator == "weighted_mean")


def test_untraced_rounds_record_no_spans(monkeypatch):
    chan = run_worker("weighted_mean", monkeypatch, trace=False)
    assert all(not t["spans"] for t in chan.phase2)
