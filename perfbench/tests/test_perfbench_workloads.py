"""Smoke, schema and determinism checks of the workloads and run.py.

The workloads are shrunk to a few dozen rounds here; the benchmark's own
sizes are in ``workloads.py``.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import workloads
from repro.telemetry import validate_trace_events
from workloads import END_TO_END, PER_LAYER, WORKLOADS, run

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

TINY = {
    workloads.ArmTrack: dict(n_rounds=1 + 3 + 30, warmup=3, err_rounds=20),
    workloads.FusedSmall: dict(n_rounds=1 + 3 + 5000, warmup=3, err_rounds=100,
                               parity_rounds=50),
    workloads.SessionsChurn: dict(n_sessions=24, n_rounds=1 + 3 + 80, warmup=3,
                                  err_rounds=20, churn_every=10, churn_n=2,
                                  rate=500.0),
    workloads.ShardShm: dict(n_rounds=1 + 3 + 40, warmup=3, err_rounds=20,
                             parity_rounds=10),
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture
def tiny(monkeypatch):
    for cls, attrs in TINY.items():
        for name, value in attrs.items():
            monkeypatch.setattr(cls, name, value)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke(tiny, tmp_path, name, trace):
    rep = run(name, seed=3, seconds=0.2, trace=trace, trace_dir=str(tmp_path))
    assert rep["correct"], rep["gates"]
    assert rep["attempted"] >= 1 and rep["failed"] == 0
    values = {k: m["value"] for k, m in rep["metrics"].items()}
    assert set(values) == set(PER_LAYER if trace else END_TO_END)
    assert all(np.isfinite(v) for v in values.values())
    if trace:
        with open(rep["chrome_trace"]) as fh:
            assert validate_trace_events(json.load(fh))
        assert values["round_ms"] > 0 and values["models.calls"] > 0
    else:
        assert all(v > 0 for v in values.values())


def test_stall_in_one_stretch_shows_in_p99(tiny, monkeypatch):
    """A stretch of 300 rounds that each stall 2 ms, under a third of a 2 s
    run, lands in ``step_p99_ms``: every round of the timed region counts,
    not only the quiet stretches of it. Restated at the reference speed, a
    2 ms stall still reads over 0.8 ms unless the host ran at under 40% of
    that speed."""
    monkeypatch.setattr(workloads.FusedSmall, "n_rounds", 1 + 3 + 60_000)

    def p99():
        rep = run("fused-small", seed=3, seconds=2.0, trace=False)
        return rep["metrics"]["step_p99_ms"]["value"]

    plain = p99()
    step = workloads.FusedSmall.round

    def stalled(self):
        if 1000 <= self.k < 1300:
            time.sleep(0.002)
        return step(self)

    monkeypatch.setattr(workloads.FusedSmall, "round", stalled)
    assert p99() > 0.8 > plain


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_answers(tiny, name):
    a, b = (run(name, seed=7, seconds=0.1, trace=False) for _ in range(2))
    assert a["metrics"]["tracking_error"] == b["metrics"]["tracking_error"]
    assert a["failed_frac"] == b["failed_frac"] == 0.0


def _run_py(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_cli_prints_the_result_line():
    out = _run_py(ROOT, "--workload", "fused-small", "--seed", "2",
                  "--seconds", "0.3", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_cli_fails_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_py(tmp_path, "--workload", "arm-track", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
