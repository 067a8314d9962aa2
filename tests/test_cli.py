"""Tests for the command-line interface and config serialization."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.parameters import (
    CentralizedFilterConfig,
    DistributedFilterConfig,
    centralized_config_from_dict,
    centralized_config_to_dict,
    distributed_config_from_dict,
    distributed_config_to_dict,
)
from repro.topology import RingTopology


class TestConfigSerialization:
    def test_distributed_roundtrip(self):
        cfg = DistributedFilterConfig(n_particles=8, n_filters=4, topology="torus", n_exchange=2, dtype=np.float64)
        d = distributed_config_to_dict(cfg)
        json.dumps(d)  # must be JSON-clean
        back = distributed_config_from_dict(d)
        assert back == cfg.with_()  # frozen dataclass equality
        assert np.dtype(back.dtype) == np.float64

    def test_centralized_roundtrip(self):
        cfg = CentralizedFilterConfig(n_particles=100, resampler="rws")
        back = centralized_config_from_dict(json.loads(json.dumps(centralized_config_to_dict(cfg))))
        assert back == cfg

    def test_custom_topology_not_serializable(self):
        cfg = DistributedFilterConfig(n_particles=8, n_filters=4, topology=RingTopology(4))
        with pytest.raises(TypeError):
            distributed_config_to_dict(cfg)


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_track_command(self, capsys):
        rc = main(["track", "--particles", "8", "--filters", "8", "--steps", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "error_m" in out and "host_hz" in out

    def test_bench_tables(self, capsys):
        rc = main(["bench", "tables"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table II" in out and "GTX 580" in out

    def test_bench_fig4(self, capsys):
        rc = main(["bench", "fig4"])
        assert rc == 0
        assert "Fig 4a" in capsys.readouterr().out

    def test_platforms_command(self, capsys):
        rc = main(["platforms"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "embedded" in out

    def test_kernels_command(self, capsys):
        rc = main(["kernels", "--platform", "hd-7970", "--particles", "256"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "registered kernels" in out and "HD 7970" in out
        for name in ("sort", "rws", "metropolis", "route_pooled"):
            assert name in out

    def test_kernels_rejects_unknown_platform(self, capsys):
        # A clean diagnostic and exit code, not a ValueError traceback.
        rc = main(["kernels", "--platform", "not-a-device"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown platform 'not-a-device'" in err
        assert "gtx-580" in err  # the message lists the valid choices

    def test_bench_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["bench", "fig99"])

    def test_report_to_file(self, tmp_path, capsys, monkeypatch):
        # Patch the heavy runners for a fast structural check of the report.
        import repro.bench.report as report

        monkeypatch.setattr(report, "run_fig3", lambda **kw: [{"total_particles": 1, "gtx-580": 1.0}])
        monkeypatch.setattr(report, "run_fig4a", lambda: [{"particles_per_subfilter": 16, "sort": 0.2}])
        monkeypatch.setattr(report, "run_fig4b", lambda: [{"n_subfilters": 16, "sort": 0.2}])
        monkeypatch.setattr(report, "run_fig4c", lambda: [{"state_dim": 8, "sampling": 0.4}])
        monkeypatch.setattr(report, "measured_breakdown", lambda: {"sampling": 1.0})
        monkeypatch.setattr(report, "run_fig5_centralized", lambda: [{"n_particles": 4, "rws_measured_ms": 1.0}])
        monkeypatch.setattr(report, "run_fig5_subfilter", lambda: [{"total_particles": 4, "rws_measured_ms": 1.0}])
        monkeypatch.setattr(report, "run_fig6", lambda n_runs: [{"particles_per_filter": 8, "ring": 0.2}])
        monkeypatch.setattr(report, "run_fig7", lambda n_runs: [{"particles_per_filter": 8, "t=1": 0.2}])
        monkeypatch.setattr(
            report,
            "run_fig8",
            lambda: {
                "high_converged_at": 5,
                "low_converged_at": None,
                "high_errors": np.ones(30) * 0.1,
                "low_errors": np.ones(30) * 9.9,
            },
        )
        monkeypatch.setattr(report, "run_fig9", lambda n_runs: [{"total_particles": 256, "centralized": 0.2}])
        out_file = tmp_path / "report.md"
        rc = main(["report", "-o", str(out_file)])
        assert rc == 0
        text = out_file.read_text()
        for heading in ("Fig 3", "Fig 4a", "Fig 5", "Fig 6", "Fig 7", "Fig 8", "Fig 9", "Table II", "Table III"):
            assert heading in text


def _exit_status(argv):
    """main()'s status, whether it returns it or the parser raises it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestBadArguments:
    @pytest.mark.parametrize("argv, flag", [
        (["bench", "allocation", "--seeds", "0"], "--seeds"),
        (["bench", "allocation", "--seeds", "-1"], "--seeds"),
        (["run", "--steps", "0"], "--steps"),
        (["kernels", "--particles", "0"], "--particles"),
        (["track", "--filters", "0"], "--filters"),
    ], ids=["bench-seeds-0", "bench-seeds-negative", "run-steps-0",
            "kernels-particles-0", "track-filters-0"])
    def test_exits_2_with_one_error_line(self, argv, flag, capsys):
        assert _exit_status(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and flag in errors[0]

    def test_resume_past_the_last_step_is_an_error(self, tmp_path, capsys):
        ckpt = str(tmp_path / "run.ckpt")
        assert main(["run", "--steps", "4", "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        assert main(["run", "--steps", "4", "--resume", ckpt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--steps" in err

    def test_corrupt_checkpoint_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a zip archive")
        assert main(["run", "--steps", "4", "--resume", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_unknown_transport_is_an_error(self, capsys):
        assert main(["chaos", "--transport", "carrier-pigeon"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown transport") and "pipe" in err


class TestRunCLI:
    def test_checkpoint_then_resume_matches_uninterrupted(self, tmp_path, capsys):
        # golden-trace smoke at the CLI surface: final estimate of the
        # resumed run must be printed identically to the uninterrupted one.
        rc = main(["run", "--steps", "12", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        golden = out.split("final estimate")[-1]

        ckpt = str(tmp_path / "run.ckpt")
        rc = main(["run", "--steps", "6", "--seed", "7", "--checkpoint", ckpt])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote checkpoint" in out and "steps 0..5" in out

        rc = main(["run", "--steps", "12", "--seed", "7", "--resume", ckpt])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resumed" in out and "at step 6" in out and "steps 6..11" in out
        assert out.strip().splitlines()[-1].split("final estimate")[-1] == golden

    def test_multiprocess_backend_roundtrip(self, tmp_path, capsys):
        ckpt = str(tmp_path / "mp.ckpt")
        rc = main(["run", "--backend", "pipe", "--steps", "4", "--checkpoint", ckpt])
        assert rc == 0
        capsys.readouterr()
        rc = main(["run", "--backend", "pipe", "--steps", "8", "--resume", ckpt])
        assert rc == 0
        assert "steps 4..7" in capsys.readouterr().out

    def test_resume_on_a_different_worker_count_matches_uninterrupted(
            self, tmp_path, capsys):
        # Every sub-filter owns its RNG stream, so a 2-worker checkpoint
        # resumes on 4 workers and ends on the uninterrupted estimate.
        assert main(["run", "--backend", "pipe", "--steps", "12"]) == 0
        golden = capsys.readouterr().out.strip().splitlines()[-1]
        ckpt = str(tmp_path / "mp.ckpt")
        assert main(["run", "--backend", "pipe", "--steps", "6",
                     "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        assert main(["run", "--backend", "pipe", "--workers", "4",
                     "--steps", "12", "--resume", ckpt]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert "steps 6..11" in out[-1]
        assert (out[-1].split("final estimate")[-1]
                == golden.split("final estimate")[-1])


class TestChaosCLI:
    def test_soak_prints_report_and_exports_json(self, tmp_path, capsys):
        out_path = tmp_path / "chaos.json"
        rc = main(["chaos", "--steps", "6", "--seed", "5", "--max-kills", "1",
                   "--respawn", "-o", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault plan (seed=5)" in out
        assert "n_failures" in out and "escalations" in out
        payload = json.loads(out_path.read_text())
        assert payload["seed"] == 5 and payload["transport"] == "pipe"
        assert set(payload) >= {"plan", "report", "events", "supervisor",
                                "dead_workers"}
        assert payload["supervisor"]["max_missed"] >= 1
        # the exported plan replays: it is the reproducibility contract
        from repro.resilience import FaultPlan

        clone = FaultPlan.from_dicts(payload["plan"])
        assert clone.seed == 5

    def test_clean_plan_soak(self, capsys):
        # p=0 probabilities: a chaos soak with no faults still reports
        rc = main(["chaos", "--steps", "3", "--p-kill", "0", "--p-poison", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "clean" in out and "n_failures" in out


class TestTraceCLI:
    def test_trace_writes_valid_trace_event_json(self, tmp_path, capsys):
        # The CLI smoke contract: the output opens in Perfetto, i.e. every
        # event carries ph/ts/pid/tid/name (and X events carry dur).
        from repro.telemetry import validate_trace_events

        out_path = tmp_path / "trace.json"
        rc = main(["trace", str(out_path), "--backend", "vectorized",
                   "--filters", "4", "--particles", "16", "--steps", "3"])
        assert rc == 0
        events = validate_trace_events(json.loads(out_path.read_text()))
        assert any(ev.get("cat") == "step" for ev in events)
        assert any(ev.get("cat") == "kernel" for ev in events)
        out = capsys.readouterr().out
        assert "per-stage breakdown" in out and "wrote" in out

    def test_trace_multiprocess_merges_workers(self, tmp_path):
        from repro.telemetry import validate_trace_events

        out_path = tmp_path / "trace.json"
        rc = main(["trace", str(out_path), "--backend", "shm",
                   "--filters", "4", "--particles", "16",
                   "--workers", "2", "--steps", "2"])
        assert rc == 0
        events = validate_trace_events(json.loads(out_path.read_text()))
        names = {ev["args"]["name"] for ev in events if ev["ph"] == "M"}
        assert {"master", "worker-0", "worker-1"} <= names
        # run-level span stamped with provenance metadata
        run_ev = next(ev for ev in events if ev.get("cat") == "run")
        assert "python" in run_ev["args"]
