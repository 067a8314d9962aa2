"""Multiprocess outputs pinned across commits.

Every other multiprocess parity test compares two paths of the same build
(N workers vs one, pipe vs shm, resumed vs uninterrupted), so a change that
moved every transport alike would pass them all. The hex traces below were
dumped from the dense-route master (pipe and shm routed phase 2 through
``_route_block``, respawn delivered its clones with ``adopt``); each case
must reproduce them to the last bit on every transport that supports it.

The ``corrupt-exchange`` trace is the pipe/shm one: corruption hits only the
particles a worker sends, so the intra-shard slots of the cut-edge exchange
must carry the corrupted copy too.
"""

import numpy as np
import pytest

from repro.backends import MultiprocessDistributedParticleFilter
from repro.core import DistributedFilterConfig
from repro.models import LinearGaussianModel
from repro.prng import make_rng
from repro.resilience import FaultPlan

N_STEPS = 12

BASE = dict(n_particles=16, n_filters=8, topology="ring", n_exchange=2,
            estimator="weighted_mean", seed=3)
KILL = dict(n_workers=4, on_failure="heal")

#: name -> (config overrides, filter kwargs, fault plan or None)
CASES = {
    "ring-weighted-mean": ({}, dict(n_workers=2), None),
    "ring-max-weight": (dict(estimator="max_weight"), dict(n_workers=2), None),
    "all-to-all": (dict(topology="all-to-all"), dict(n_workers=2), None),
    "kill-respawn": ({}, dict(KILL, respawn_dead=True), "kill"),
    "kill-respawn-ess": (dict(allocation="ess", n_particles=32),
                         dict(KILL, respawn_dead=True), "kill"),
    "kill-rebalance": ({}, dict(KILL, rebalance_dead=True), "kill"),
    "corrupt-exchange": (dict(n_particles=8), dict(n_workers=2), "corrupt"),
}

# float64 estimate sequences, 12 steps each, as raw little-endian bytes.
GOLDEN = {
    "ring-weighted-mean": (
        "da21b39dbf64d83f89496eab7b2ee13fa3f875cf1b92d83f977882979032e13f"
        "b31ff1bf265ce53f388279eb920ad03f8fecbde6f5e5d03ffebb88df17b6d13f"
        "f7cabffe6d84d63f0dca84886ae1e33f273d2fd81f16db3f514bdad0a8cdb13f"
    ),
    "ring-max-weight": (
        "000000e094d9d73f00000080cc2be23f00000040c168d63f000000406c3ae23f"
        "000000400478e63f00000000dcbac33f00000060726fd03f00000040004fd13f"
        "000000209032d83f000000e0c8afe63f000000204e5ad83f00000000614a8b3f"
    ),
    "all-to-all": (
        "da21b39dbf64d83f0fda30e65637e13f2aea66a73c3ed83f0bba22ee8b21e13f"
        "e3f26f1b1822e53f8a43acdfa28fd23fc41bc402c863d03ff7ade3f22673d13f"
        "de0b9f74930ed73f6e7b3f6f8d3ce43fd88e30a84691db3f5dda4e731005ad3f"
    ),
    "kill-respawn": (
        "da21b39dbf64d83f89496eab7b2ee13fa3f875cf1b92d83f2150b4401530e13f"
        "a42432f8913ce53f8cd5dcc277ebc83f3f28704d18d0cf3f5159b0222e45d23f"
        "32b716d736c2d53fa6340958f1dae33fae159705586cda3feec1217d0933a13f"
    ),
    "kill-respawn-ess": (
        "15244ef73b30da3f0a86f0fd1ae0e03f29cdb0c43a1bd83fa3ace39d8c7fe13f"
        "17350ad9464be53f463899f35758ca3ffb6b981ea294cd3fe4170beb0d7dd03f"
        "dac70718a8c3d63f875d364fdd4ae43f6bf946d36381db3f51563a1dc965923f"
    ),
    "kill-rebalance": (
        "da21b39dbf64d83f89496eab7b2ee13fa3f875cf1b92d83f2150b4401530e13f"
        "a42432f8913ce53f8cd5dcc277ebc83f3f28704d18d0cf3f5159b0222e45d23f"
        "32b716d736c2d53fa6340958f1dae33fae159705586cda3feec1217d0933a13f"
    ),
    "corrupt-exchange": (
        "b57029852291d83f8e862cade7a4e13fe433a14984add83fdd28ad0ddf62e13f"
        "eb8a23df65b3e53faaa6a05b89d0c43f116bbf24ee3fce3f8d0af4ea19acd13f"
        "b1f679529e99d53f869141d5e195e43f556ad72471d0db3f2073be790d2574bf"
    ),
}

TRANSPORTS = ("pipe", "shm", "tcp")
#: rebalancing grows a worker's block, which a fixed-size shm slab cannot hold.
UNSUPPORTED = {("kill-rebalance", "shm")}


def _plan(kind):
    if kind == "kill":
        return FaultPlan(seed=0).kill(worker=1, step=3)
    if kind == "corrupt":
        return FaultPlan(seed=0).corrupt_exchange(worker=0, step=3, fraction=0.5)
    return None


def _run(name, transport):
    overrides, kwargs, fault = CASES[name]
    model = LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])
    meas = model.simulate(N_STEPS, make_rng("numpy", seed=99)).measurements
    config = DistributedFilterConfig(**{**BASE, **overrides})
    with MultiprocessDistributedParticleFilter(
            model, config, transport=transport, fault_plan=_plan(fault),
            recv_timeout=30.0, **kwargs) as pf:
        ests = np.stack([pf.step(z) for z in meas])
        diag = pf.diagnostics()
    return ests.astype(np.float64).tobytes().hex(), diag


class TestPinnedTraces:
    @pytest.mark.parametrize("name,transport", [
        (name, tr) for name in CASES for tr in TRANSPORTS
        if (name, tr) not in UNSUPPORTED])
    def test_trace_matches_golden(self, name, transport):
        trace, diag = _run(name, transport)
        assert trace == GOLDEN[name]
        if name.startswith("kill-respawn"):
            assert diag["respawns"] == 1  # the kill actually fired
        if name == "kill-rebalance":
            assert "rebalance" in diag["escalations"]
