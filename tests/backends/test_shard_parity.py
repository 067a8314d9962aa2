"""Shard parity: N shards over any transport == one process, bit for bit.

The contract the whole shard layer hangs on: every sub-filter consumes its
own private stream in a partition-invariant order, the shard-aware
exchange packs exactly the particles the dense exchange would have routed,
and the global estimate is reduced from per-filter partials that do not
depend on which worker computed them.
Consequently the estimates, final populations, log-weights, and adaptive
widths of a sharded run are **bitwise identical** to the single-process
golden trace — including across transports (each of which takes the
cut-edge exchange for pairwise topologies), and through a kill → rebalance →
checkpoint → elastic-resume chaos history.
"""

import json
import zipfile

import numpy as np
import pytest

from repro.backends import MultiprocessDistributedParticleFilter
from repro.core import DistributedFilterConfig
from repro.models import LinearGaussianModel
from repro.prng import make_rng
from repro.resilience import FaultPlan
from repro.resilience.checkpoint import MANIFEST_MEMBER, CheckpointError
from repro.topology import make_shard_plan, resolve_topology


def lg_model():
    return LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])


def cfg(**kw):
    base = dict(n_particles=16, n_filters=8, estimator="weighted_mean",
                seed=3, n_exchange=2, rng_streams="filter")
    base.update(kw)
    return DistributedFilterConfig(**base)


def run(config, meas, n_workers, transport="pipe", **kw):
    with MultiprocessDistributedParticleFilter(
            lg_model(), config, n_workers=n_workers, transport=transport, **kw
    ) as pf:
        ests = np.array([pf.step(z) for z in meas])
        states, logw = pf.gather_population()
        widths = None if pf._widths is None else pf._widths.copy()
        diag = pf.diagnostics()
    return ests, states, logw, widths, diag


def assert_bitwise(a, b, where=""):
    np.testing.assert_array_equal(a[0], b[0], err_msg=where)  # estimates
    np.testing.assert_array_equal(a[1], b[1], err_msg=where)  # states
    np.testing.assert_array_equal(a[2], b[2], err_msg=where)  # log-weights
    if a[3] is not None or b[3] is not None:
        np.testing.assert_array_equal(a[3], b[3], err_msg=where)  # widths


#: The invariance tests run under both estimators: the weighted mean reduces
#: per-filter partials the workers ship, the max-weight estimate ships none.
ESTIMATORS = ("weighted_mean", "max_weight")


class TestShardInvariance:
    def test_two_shard_tcp_matches_single_process_golden(self):
        meas = lg_model().simulate(12, make_rng("numpy", seed=1)).measurements
        for est in ESTIMATORS:
            golden = run(cfg(estimator=est), meas, n_workers=1)
            two = {tr: run(cfg(estimator=est), meas, n_workers=2, transport=tr)
                   for tr in ("tcp", "shm")}
            for tr, result in two.items():
                assert_bitwise(golden, result, f"{est}/{tr}")
            # The cut-edge exchange actually engaged and metered its traffic.
            tcp = two["tcp"]
            assert tcp[4]["shard"]["cut_particles"] > 0
            assert tcp[4]["shard"]["cut_bytes"] > 0
            assert tcp[4]["transport_bytes"]["sent"] > 0

    def test_worker_count_is_invisible_at_filter_granularity(self):
        meas = lg_model().simulate(10, make_rng("numpy", seed=2)).measurements
        for est in ESTIMATORS:
            golden = run(cfg(estimator=est), meas, n_workers=1)
            for transport in ("pipe", "shm"):
                for w in (2, 4, 8):
                    other = run(cfg(estimator=est), meas, n_workers=w,
                                transport=transport)
                    assert_bitwise(golden, other, f"{est}/{transport}/{w} workers")

    def test_cut_edge_exchange_on_pipe_and_shm_matches_golden(self):
        meas = lg_model().simulate(10, make_rng("numpy", seed=3)).measurements
        for est in ESTIMATORS:
            golden = run(cfg(estimator=est), meas, n_workers=1)
            for transport in ("pipe", "shm"):
                two = run(cfg(estimator=est), meas, n_workers=2,
                          transport=transport)
                assert_bitwise(golden, two, f"{est}/{transport}")
                assert two[4]["shard"]["cut_particles"] > 0

    def test_exchange_corruption_is_transport_invariant(self):
        # A FaultPlan corrupts only the particles a worker sends, and the
        # intra-shard slots of the cut-edge exchange must carry that copy:
        # every transport then pools the same corrupted candidates.
        meas = lg_model().simulate(10, make_rng("numpy", seed=10)).measurements
        plan = FaultPlan(seed=0).corrupt_exchange(worker=0, step=3, fraction=0.5)
        results = {tr: run(cfg(n_particles=8), meas, n_workers=2, transport=tr,
                           fault_plan=plan)
                   for tr in ("pipe", "shm", "tcp")}
        for tr in ("shm", "tcp"):
            assert_bitwise(results["pipe"], results[tr], tr)
        clean = run(cfg(n_particles=8), meas, n_workers=2)
        assert not np.array_equal(clean[0], results["pipe"][0])  # it fired

    def test_mid_round_death_heals_alike_on_every_transport(self):
        # A worker killed during phase 1 dies after the round's table was
        # frozen; the next round must route over the healed table on every
        # transport, not over shard views cached from the frozen one.
        meas = lg_model().simulate(10, make_rng("numpy", seed=11)).measurements
        results = {tr: run(cfg(), meas, n_workers=4, transport=tr,
                           fault_plan=FaultPlan(seed=0).kill(worker=1, step=2),
                           on_failure="heal", recv_timeout=30.0)
                   for tr in ("pipe", "shm", "tcp")}
        for tr in ("shm", "tcp"):
            assert_bitwise(results["pipe"], results[tr], tr)
        assert results["pipe"][4]["dead_filters"] == [2, 3]

    def test_adaptive_allocation_shards_bitwise(self):
        meas = lg_model().simulate(12, make_rng("numpy", seed=4)).measurements
        for est in ESTIMATORS:
            config = cfg(allocation="ess", n_particles=32, estimator=est)
            golden = run(config, meas, n_workers=1)
            for transport in ("tcp", "shm"):
                two = run(config, meas, n_workers=2, transport=transport)
                assert_bitwise(golden, two, f"{est}/{transport}")
                assert two[3] is not None  # widths actually in play

    def test_cut_bytes_scale_with_cut_not_particles(self):
        meas = lg_model().simulate(6, make_rng("numpy", seed=5)).measurements
        small = run(cfg(n_particles=16), meas, 2)
        big = run(cfg(n_particles=64), meas, 2)
        wide = run(cfg(n_filters=16), meas, 4)
        # 4x the particles, same cut -> same wire bytes.
        assert small[4]["shard"]["cut_bytes"] == big[4]["shard"]["cut_bytes"]
        # Twice the boundaries -> strictly more wire bytes.
        assert wide[4]["shard"]["cut_bytes"] > small[4]["shard"]["cut_bytes"]
        # Every round moves exactly the bytes the plan predicts from the cut,
        # through the pipe and through the shm slab alike.
        for transport in ("pipe", "shm"):
            for config, n_workers in ((cfg(n_particles=16), 2),
                                      (cfg(n_particles=64), 2),
                                      (cfg(n_filters=16), 4)):
                result = run(config, meas, n_workers, transport=transport)
                plan = make_shard_plan(
                    resolve_topology("ring", config.n_filters), n_workers)
                per_round = plan.cut_bytes_per_round(
                    cfg().n_exchange, lg_model().state_dim,
                    state_itemsize=result[1].dtype.itemsize,
                    weight_itemsize=result[2].dtype.itemsize)
                assert result[4]["shard"]["cut_bytes"] == per_round * len(meas)


class TestRebalanceChaosParity:
    def _chaos(self, n_workers, transport, meas, ckpt=None):
        plan = FaultPlan(seed=0).kill(worker=1, step=3)
        with MultiprocessDistributedParticleFilter(
                lg_model(), cfg(), n_workers=n_workers, transport=transport,
                fault_plan=plan, on_failure="heal", rebalance_dead=True,
                recv_timeout=20.0) as pf:
            ests = [pf.step(z) for z in meas[:7]]
            if ckpt:
                pf.save_checkpoint(ckpt)
            ests += [pf.step(z) for z in meas[7:]]
            states, logw = pf.gather_population()
            diag = pf.diagnostics()
        return np.array(ests), states, logw, None, diag

    def test_rebalance_keeps_all_filters_live_and_transport_invariant(self):
        meas = lg_model().simulate(12, make_rng("numpy", seed=6)).measurements
        pipe = self._chaos(4, "pipe", meas)
        tcp = self._chaos(4, "tcp", meas)
        assert_bitwise(pipe, tcp)
        # The dead worker's sub-filters were adopted, not healed out.
        assert pipe[4]["dead_filters"] == []
        assert pipe[4]["membership"]["owned_counts"][1] == 0
        assert sum(pipe[4]["membership"]["owned_counts"]) == 8
        assert np.isfinite(pipe[1]).all()
        assert "rebalance" in pipe[4]["escalations"]

    def test_elastic_resume_across_worker_counts_is_bit_identical(self, tmp_path):
        meas = lg_model().simulate(12, make_rng("numpy", seed=7)).measurements
        path = str(tmp_path / "rebal.ckpt")
        full = self._chaos(4, "pipe", meas, ckpt=path)
        for n_resume in (2, 8):
            with MultiprocessDistributedParticleFilter(
                    lg_model(), cfg(), n_workers=n_resume,
                    transport="tcp" if n_resume == 2 else "pipe") as pf:
                pf.load_checkpoint(path)
                ests = np.array([pf.step(z) for z in meas[7:]])
                states, logw = pf.gather_population()
            np.testing.assert_array_equal(ests, full[0][7:])
            np.testing.assert_array_equal(states, full[1])
            np.testing.assert_array_equal(logw, full[2])

    def test_same_count_resume_restores_rebalanced_assignment(self, tmp_path):
        meas = lg_model().simulate(10, make_rng("numpy", seed=8)).measurements
        path = str(tmp_path / "rebal4.ckpt")
        full = self._chaos(4, "pipe", meas, ckpt=path)
        with MultiprocessDistributedParticleFilter(
                lg_model(), cfg(), n_workers=4) as pf:
            pf.load_checkpoint(path)
            # The post-rebalance (non-contiguous) shard layout came back.
            assert pf.membership.summary()["owned_counts"][1] == 0
            ests = np.array([pf.step(z) for z in meas[7:]])
        np.testing.assert_array_equal(ests, full[0][7:])


def give_checkpoint_worker_streams(path):
    """Rewrite a multiprocess checkpoint as one stream per worker (schema v3)."""
    with zipfile.ZipFile(path) as zf:
        members = {n: zf.read(n) for n in zf.namelist()}
    manifest = json.loads(members[MANIFEST_MEMBER])
    manifest["schema_version"] = 3
    meta = manifest["meta"]
    root = make_rng(meta["config"]["rng"], meta["config"]["seed"])
    meta["worker_rng"] = {w: root.spawn(1000 + int(w)).state_dict()
                          for w in meta["worker_rng"]}
    members[MANIFEST_MEMBER] = json.dumps(manifest).encode()
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, blob in members.items():
            zf.writestr(name, blob)


class TestGuards:
    def test_worker_stream_mode_removed(self):
        with pytest.raises(ValueError, match="rng_streams='worker' was removed"):
            DistributedFilterConfig(rng_streams="worker")

    def test_elastic_resume_requires_filter_streams(self, tmp_path):
        meas = lg_model().simulate(4, make_rng("numpy", seed=9)).measurements
        path = str(tmp_path / "legacy.ckpt")
        with MultiprocessDistributedParticleFilter(
                lg_model(), cfg(), n_workers=2) as pf:
            for z in meas:
                pf.step(z)
            pf.save_checkpoint(path)
        give_checkpoint_worker_streams(path)
        with MultiprocessDistributedParticleFilter(
                lg_model(), cfg(), n_workers=4) as pf:
            with pytest.raises(CheckpointError, match="per-worker RNG streams"):
                pf.load_checkpoint(path)

    def test_rebalance_requires_filter_streams(self):
        with pytest.raises(ValueError, match="rng_streams"):
            MultiprocessDistributedParticleFilter(
                lg_model(), cfg(rng_streams="worker"), n_workers=2,
                on_failure="heal", rebalance_dead=True)

    def test_rebalance_excludes_respawn(self):
        with pytest.raises(ValueError, match="respawn"):
            MultiprocessDistributedParticleFilter(
                lg_model(), cfg(), n_workers=2, on_failure="heal",
                rebalance_dead=True, respawn_dead=True)
