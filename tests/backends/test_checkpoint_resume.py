"""Checkpoint/resume acceptance: bit-identical golden traces on every backend.

The contract under test: saving at a step boundary and resuming — in a fresh
process tree — produces estimates *bit-identical* to the uninterrupted run,
including runs whose topology was healed and whose workers were respawned
mid-flight. Plus the transport failure paths around checkpointing: SIGKILL
between scatter and poll is detected by process liveness (fast, not at the
deadline), and shm segments are reclaimed when a supervised run aborts.
"""

import json
import os
import signal
import time
import zipfile

import numpy as np
import pytest

from repro.backends import MultiprocessDistributedParticleFilter
from repro.backends.sequential import SequentialDistributedParticleFilter
from repro.core import DistributedFilterConfig, DistributedParticleFilter
from repro.models import LinearGaussianModel
from repro.prng import make_rng
from repro.resilience import (
    CheckpointError,
    FaultPlan,
    Supervisor,
    WorkerFailure,
    read_manifest,
)
from repro.resilience.checkpoint import MANIFEST_MEMBER


def lg_model():
    return LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])


def cfg(**kw):
    base = dict(n_particles=16, n_filters=8, topology="ring", n_exchange=1,
                estimator="weighted_mean", seed=3)
    base.update(kw)
    return DistributedFilterConfig(**base)


def measurements(n_steps, seed=4):
    model = lg_model()
    truth = model.simulate(n_steps, make_rng("numpy", seed=seed))
    return np.asarray(truth.measurements, dtype=np.float64)


def drive(pf, meas, start=0):
    return np.stack([pf.step(meas[k]) for k in range(start, meas.shape[0])])


class TestSingleProcessGoldenTrace:
    @pytest.mark.parametrize("factory", [
        DistributedParticleFilter, SequentialDistributedParticleFilter,
    ], ids=["vectorized", "sequential"])
    def test_resume_is_bit_identical(self, factory, tmp_path):
        model, meas, cut = lg_model(), measurements(14), 7
        golden = drive(factory(model, cfg()), meas)

        pf = factory(model, cfg())
        head = drive(pf, meas[:cut])
        manifest = pf.save_checkpoint(str(tmp_path / "run.ckpt"))
        assert manifest["meta"]["k"] == cut and manifest["meta"]["boundary"]

        pf2 = factory(model, cfg())
        pf2.load_checkpoint(str(tmp_path / "run.ckpt"))
        assert pf2.k == cut
        tail = drive(pf2, meas, start=cut)
        np.testing.assert_array_equal(np.vstack([head, tail]), golden)

    def test_backend_mismatch_rejected(self, tmp_path):
        model, meas = lg_model(), measurements(3)
        pf = DistributedParticleFilter(model, cfg())
        drive(pf, meas)
        pf.save_checkpoint(str(tmp_path / "vec.ckpt"))
        with pytest.raises(CheckpointError, match="backend"):
            SequentialDistributedParticleFilter(model, cfg()).load_checkpoint(
                str(tmp_path / "vec.ckpt"))

    def test_config_mismatch_rejected(self, tmp_path):
        model, meas = lg_model(), measurements(3)
        pf = DistributedParticleFilter(model, cfg())
        drive(pf, meas)
        pf.save_checkpoint(str(tmp_path / "run.ckpt"))
        other = DistributedParticleFilter(model, cfg(seed=99))
        with pytest.raises(CheckpointError, match="configuration"):
            other.load_checkpoint(str(tmp_path / "run.ckpt"))

    def test_checkpoint_before_init_rejected(self, tmp_path):
        pf = DistributedParticleFilter(lg_model(), cfg())
        with pytest.raises(CheckpointError):
            pf.save_checkpoint(str(tmp_path / "run.ckpt"))


@pytest.mark.parametrize("transport", ["pipe", "shm", "tcp"])
class TestMultiprocessGoldenTrace:
    def test_resume_is_bit_identical(self, transport, tmp_path):
        model, meas, cut = lg_model(), measurements(12), 6
        with MultiprocessDistributedParticleFilter(
                model, cfg(), n_workers=2, transport=transport) as pf:
            golden = drive(pf, meas)

        path = str(tmp_path / "run.ckpt")
        with MultiprocessDistributedParticleFilter(
                model, cfg(), n_workers=2, transport=transport) as pf:
            head = drive(pf, meas[:cut])
            manifest = pf.save_checkpoint(path)
        assert manifest["meta"]["k"] == cut
        assert manifest["meta"]["transport"] == transport

        with MultiprocessDistributedParticleFilter(
                model, cfg(), n_workers=2, transport=transport) as pf2:
            pf2.load_checkpoint(path)
            assert pf2.k == cut
            assert pf2.report.checkpoints_restored == 1
            tail = drive(pf2, meas, start=cut)
        np.testing.assert_array_equal(np.vstack([head, tail]), golden)

    def test_resume_with_respawned_worker_is_bit_identical(self, transport, tmp_path):
        # The hard case: a worker is killed and respawned mid-flight BEFORE
        # the checkpoint. Resuming must reproduce the uninterrupted chaos
        # run bit-for-bit — which exercises the per-filter generation tags
        # (respawn lineage) and healed-topology state in the checkpoint.
        model, meas, cut = lg_model(), measurements(12), 7
        plan = FaultPlan(seed=0).kill(worker=1, step=3)

        def mk():
            return MultiprocessDistributedParticleFilter(
                model, cfg(), n_workers=4, transport=transport, fault_plan=plan,
                on_failure="heal", respawn_dead=True, recv_timeout=30.0)

        with mk() as pf:
            golden = drive(pf, meas)
            assert pf.report.respawns == 1  # the fault actually fired

        path = str(tmp_path / "chaos.ckpt")
        with mk() as pf:
            head = drive(pf, meas[:cut])
            assert pf.report.respawns == 1
            manifest = pf.save_checkpoint(path)
        meta = manifest["meta"]
        killed = np.asarray(meta["assignment"]) == 1
        # The respawned worker's sub-filters saved their bumped generations.
        assert np.asarray(meta["filter_tags"])[killed].tolist() == [1, 1]

        with mk() as pf2:
            pf2.load_checkpoint(path)
            assert pf2.report.respawns == 1  # report restored from manifest
            tail = drive(pf2, meas, start=cut)
        np.testing.assert_array_equal(np.vstack([head, tail]), golden)

    def test_resume_with_dead_block_stays_degraded(self, transport, tmp_path):
        # Healed-but-not-respawned topology: the dead block must stay dead
        # (and NaN) across the resume, with the exchange routed around it.
        model, meas, cut = lg_model(), measurements(10), 6
        plan = FaultPlan(seed=0).kill(worker=1, step=2)

        def mk(**kw):
            return MultiprocessDistributedParticleFilter(
                model, cfg(), n_workers=4, transport=transport,
                on_failure="heal", recv_timeout=30.0, **kw)

        with mk(fault_plan=plan) as pf:
            golden = drive(pf, meas)
            dead_filters = sorted(pf._healer.dead)

        path = str(tmp_path / "degraded.ckpt")
        with mk(fault_plan=plan) as pf:
            head = drive(pf, meas[:cut])
            pf.save_checkpoint(path)

        with mk() as pf2:  # no fault plan: the checkpoint carries the damage
            pf2.load_checkpoint(path)
            assert pf2.dead_workers == (1,)
            assert sorted(pf2._healer.dead) == dead_filters
            tail = drive(pf2, meas, start=cut)
        np.testing.assert_array_equal(np.vstack([head, tail]), golden)

    def test_worker_count_mismatch_rejected_while_healed_out(self, transport,
                                                             tmp_path):
        # A healed-out sub-filter has no state to re-deal, so a resume onto
        # a different worker count is refused; the same count still loads.
        model, meas = lg_model(), measurements(4)
        path = str(tmp_path / "degraded.ckpt")
        with MultiprocessDistributedParticleFilter(
                model, cfg(), n_workers=4, transport=transport,
                fault_plan=FaultPlan(seed=0).kill(worker=1, step=1),
                on_failure="heal", recv_timeout=30.0) as pf:
            drive(pf, meas)
            assert pf.dead_workers == (1,)
            pf.save_checkpoint(path)
        with MultiprocessDistributedParticleFilter(
                model, cfg(), n_workers=2, transport=transport,
                on_failure="heal") as pf2:
            with pytest.raises(CheckpointError, match="2 sub-filters are healed out"):
                pf2.load_checkpoint(path)


class TestOlderSchemas:
    """Checkpoints written before every multiprocess run drew per-filter."""

    @staticmethod
    def _rewrite_manifest(path, edit):
        with zipfile.ZipFile(path) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        manifest = json.loads(members[MANIFEST_MEMBER])
        edit(manifest)
        members[MANIFEST_MEMBER] = json.dumps(manifest).encode()
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
            for name, blob in members.items():
                zf.writestr(name, blob)

    @staticmethod
    def _downgrade_to_v3(manifest):
        # v3 multiprocess meta: no assignment or per-filter tags, no
        # rng_streams in the config record, and one stream state per worker.
        manifest["schema_version"] = 3
        meta = manifest["meta"]
        for key in ("assignment", "filter_tags"):
            del meta[key]
        del meta["config"]["rng_streams"]
        root = make_rng(meta["config"]["rng"], meta["config"]["seed"])
        meta["worker_rng"] = {w: root.spawn(1000 + int(w)).state_dict()
                              for w in meta["worker_rng"]}

    def test_v3_multiprocess_checkpoint_rejected_before_restore(self, tmp_path):
        path = str(tmp_path / "v3.ckpt")
        with MultiprocessDistributedParticleFilter(
                lg_model(), cfg(), n_workers=2) as pf:
            drive(pf, measurements(3))
            pf.save_checkpoint(path)
        self._rewrite_manifest(path, self._downgrade_to_v3)
        pf2 = MultiprocessDistributedParticleFilter(lg_model(), cfg(), n_workers=2)
        try:
            with pytest.raises(CheckpointError, match="per-worker RNG streams"):
                pf2.load_checkpoint(path)
            assert not pf2._started  # refused before any worker saw a restore
        finally:
            pf2.close()

    def test_solo_checkpoint_with_worker_stream_record_loads(self, tmp_path):
        # Solo checkpoints written while "worker" was the default carry it
        # in their config record; single-process filters never read it.
        model, meas, cut = lg_model(), measurements(8), 4
        golden = drive(DistributedParticleFilter(model, cfg()), meas)
        pf = DistributedParticleFilter(model, cfg())
        head = drive(pf, meas[:cut])
        path = str(tmp_path / "solo.ckpt")
        pf.save_checkpoint(path)

        def as_worker_mode(manifest):
            manifest["meta"]["config"]["rng_streams"] = "worker"

        self._rewrite_manifest(path, as_worker_mode)
        pf2 = DistributedParticleFilter(model, cfg())
        pf2.load_checkpoint(path)
        tail = drive(pf2, meas, start=cut)
        np.testing.assert_array_equal(np.vstack([head, tail]), golden)


class TestTransportFailurePaths:
    def test_sigkill_between_scatter_and_poll_detected_by_liveness(self):
        # The master must notice the corpse via process liveness / EOF, long
        # before the 30 s reply deadline would fire.
        model, meas = lg_model(), measurements(6)
        with MultiprocessDistributedParticleFilter(
                model, cfg(), n_workers=2, on_failure="heal",
                recv_timeout=30.0) as pf:
            pf.step(meas[0])
            os.kill(pf._procs[1].pid, signal.SIGKILL)
            pf._procs[1].join(timeout=5)
            t0 = time.perf_counter()
            pf.step(meas[1])
            elapsed = time.perf_counter() - t0
            assert elapsed < 10.0  # detected, not waited out
            assert pf.dead_workers == (1,)
            assert pf.report.failures[0].kind == "crash"

    def test_shm_segments_reclaimed_on_supervised_abort(self, tmp_path):
        # on_failure="raise" + checkpoint_on_abort: the typed error still
        # propagates, but the dead block's shm segments are reclaimed and a
        # mid-round (non-boundary) rescue checkpoint lands on disk first.
        model, meas = lg_model(), measurements(6)
        path = str(tmp_path / "abort.ckpt")
        plan = FaultPlan(seed=0).kill(worker=1, step=2)
        sup = Supervisor(beat_timeout=0.2, max_missed=2, checkpoint_on_abort=path)
        with MultiprocessDistributedParticleFilter(
                model, cfg(), n_workers=2, transport="shm", fault_plan=plan,
                on_failure="raise", recv_timeout=30.0, supervisor=sup) as pf:
            with pytest.raises(WorkerFailure):
                for k in range(meas.shape[0]):
                    pf.step(meas[k])
            assert pf.report.segments_reclaimed > 0
        manifest = read_manifest(path)
        assert manifest["meta"]["boundary"] is False
        assert manifest["meta"]["backend"] == "multiprocess"
        assert any(e["kind"] == "checkpoint_abort" for e in sup.event_log())

    def test_abort_checkpoint_is_resumable(self, tmp_path):
        # A checkpoint-on-abort rescue file restores into a fresh instance
        # (deterministic resume; just not a golden-trace boundary).
        model, meas = lg_model(), measurements(8)
        path = str(tmp_path / "abort.ckpt")
        plan = FaultPlan(seed=0).kill(worker=1, step=2)
        sup = Supervisor(beat_timeout=0.2, max_missed=2, checkpoint_on_abort=path)
        with MultiprocessDistributedParticleFilter(
                model, cfg(), n_workers=2, fault_plan=plan,
                on_failure="raise", recv_timeout=30.0, supervisor=sup) as pf:
            with pytest.raises(WorkerFailure):
                drive(pf, meas)
        with MultiprocessDistributedParticleFilter(
                model, cfg(), n_workers=2, on_failure="heal",
                recv_timeout=30.0) as pf2:
            pf2.load_checkpoint(path)
            assert pf2.dead_workers == (1,)  # the aborted run's damage
            est = drive(pf2, meas, start=pf2.k)  # completes degraded
            assert np.isfinite(est).all()
