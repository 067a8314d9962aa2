"""Run the repository benchmark and print every metric with its unit.

    python3 perfbench/run.py --seed 1                   # every workload
    python3 perfbench/run.py --workload arm-track --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1 --trace -o out.json

Each workload runs in a fresh interpreter (``perfbench/workloads.py``) so
that no workload inherits another's memory or caches. The workloads, metrics
and bounds are listed in ``BENCHMARK.json``; ``perfbench/README.md`` says
what each one measures and why.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace`` the per-layer metrics of a traced run. With
several workloads the metric names carry a ``<workload>/`` prefix. The exit
status is non-zero when any correctness gate fails, and ``-o`` writes the
full report, with host metadata and gate details, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: a workload process that runs longer than this is killed with its workers.
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def host_metadata() -> dict:
    """What a reader needs to tell whether two reports are comparable."""
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(),
            "python": platform.python_version(), "cpus": os.cpu_count(),
            "cpu_model": model, "loadavg": list(os.getloadavg())}


def run_workload(name: str, args) -> dict:
    """Run one workload in a child interpreter and return its report."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", args.trace_dir]
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # A session of its own, so a timeout kills the workload's workers too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {name} did not finish in {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"perfbench: {name} exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def print_report(rep: dict) -> None:
    verdict = "correct" if rep["correct"] else "INCORRECT"
    print(f"== {rep['workload']}  seed {rep['seed']}  {rep['seconds']:g} s  "
          f"{'traced' if rep['trace'] else 'untraced'}  {verdict}  "
          f"({rep['attempted']} steps, {rep['failed']} failed)")
    samples = rep.get("samples", {})
    for name, m in rep["metrics"].items():
        print(f"  {name:30s} {m['value']:14.6g}  {m['unit']}")
    if samples:
        print("  samples: " + ", ".join(f"{k} {v}" for k, v in samples.items()))
    for name, g in rep["gates"].items():
        print(f"  gate {name}: {'ok' if g['ok'] else 'FAILED'} - {g['detail']}")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no package source at src/repro; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measured seconds per workload")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="run traced and report per-layer metrics")
    ap.add_argument("-o", "--output", help="write the full report here")
    ap.add_argument("--trace-dir", default=".perfbench",
                    help="where traced runs write Chrome traces")
    args = ap.parse_args(argv)

    started = time.time()
    reports = {}
    for name in args.workload or names:
        reports[name] = run_workload(name, args)
        print_report(reports[name])
    if args.output:
        with open(args.output, "w") as fh:
            json.dump({"host": host_metadata(), "started_unix": started,
                       "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "workloads": reports}, fh, indent=1)
            fh.write("\n")

    single = len(reports) == 1
    metrics = {}
    for name, rep in reports.items():
        for metric, m in rep["metrics"].items():
            metrics[metric if single else f"{name}/{metric}"] = m
    correct = all(r["correct"] for r in reports.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in reports.values()),
                      "failed": sum(r["failed"] for r in reports.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
