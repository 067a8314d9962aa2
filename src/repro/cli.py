"""Command-line interface: ``esthera <command>``.

Commands
--------
- ``track``   — run the robotic-arm tracking demo with a chosen configuration.
- ``bench``   — regenerate one figure/table of the paper (fig3..fig9, tables),
  or the adaptive-allocation accuracy report (``bench allocation``). Speed is
  measured by ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
- ``report``  — regenerate the full evaluation as a Markdown report.
- ``platforms`` — list the simulated Table III platforms.
- ``kernels`` — list registered kernels with predicted costs on a platform.
- ``trace``   — run a short traced filtering run and write the merged
  step/stage/kernel timeline as a Chrome/Perfetto ``trace_event`` file
  (open in ``ui.perfetto.dev``; see ``docs/observability.md``).
- ``run``     — run a linear-Gaussian smoke filter; ``--checkpoint`` saves a
  resumable snapshot, ``--resume`` continues one bit-identically
  (see ``docs/robustness.md``).
- ``chaos``   — soak the multiprocess backend under a seeded random
  ``FaultPlan`` with heartbeat supervision; print/export the
  ``ResilienceReport`` and supervisor event log.
- ``shard-plan`` — partition the sub-filter exchange graph into shards and
  report per-strategy cut sizes and predicted cut-edge wire bytes
  (see ``docs/architecture.md``, "Sharding & transports").
"""

from __future__ import annotations

import argparse
import sys


def _cmd_track(args) -> int:
    from repro.bench.harness import arm_truth, format_table
    from repro.core import DistributedFilterConfig, DistributedParticleFilter, run_filter
    from repro.models import RobotArmModel, RobotArmParams

    model = RobotArmModel(RobotArmParams(n_joints=args.joints))
    cfg = DistributedFilterConfig(
        n_particles=args.particles,
        n_filters=args.filters,
        topology=args.topology,
        n_exchange=args.exchange,
        estimator=args.estimator,
        seed=args.seed,
    )
    truth = arm_truth(args.steps, seed=args.seed + 1000, model=model)
    run = run_filter(DistributedParticleFilter(model, cfg), model, truth)
    print(format_table([
        {
            "total_particles": cfg.total_particles,
            "topology": args.topology,
            "error_m": run.mean_error(warmup=min(args.steps // 3, 30)),
            "host_hz": run.update_rate_hz,
        }
    ]))
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import (
        format_table,
        run_fig3,
        run_fig4a,
        run_fig4b,
        run_fig4c,
        run_fig5_centralized,
        run_fig5_subfilter,
        run_fig6,
        run_fig7,
        run_fig8,
        run_fig9,
        table2_rows,
        table3_rows,
    )

    target = args.figure
    if target == "allocation":
        return _cmd_bench_allocation(args)
    if target == "fig3":
        print(format_table(run_fig3()))
    elif target == "fig4":
        for label, rows in (("4a", run_fig4a()), ("4b", run_fig4b()), ("4c", run_fig4c())):
            print(f"== Fig {label} ==")
            print(format_table(rows))
    elif target == "fig5":
        print("== centralized =="); print(format_table(run_fig5_centralized()))
        print("== sub-filter =="); print(format_table(run_fig5_subfilter()))
    elif target == "fig6":
        print(format_table(run_fig6()))
    elif target == "fig7":
        print(format_table(run_fig7()))
    elif target == "fig8":
        r = run_fig8()
        print(f"high converged at {r['high_converged_at']}, final {r['high_errors'][-20:].mean():.3f} m")
        print(f"low converged at {r['low_converged_at']}, final {r['low_errors'][-20:].mean():.3f} m")
    elif target == "fig9":
        print(format_table(run_fig9()))
    elif target == "tables":
        print("== Table II =="); print(format_table(table2_rows()))
        print("== Table III =="); print(format_table(table3_rows()))
    else:  # pragma: no cover - argparse restricts choices
        print(f"unknown target {target}", file=sys.stderr)
        return 2
    return 0


def _cmd_bench_allocation(args) -> int:
    from repro.bench.allocation import (
        format_report,
        run_allocation_bench,
        write_report,
    )

    report = run_allocation_bench(n_seeds=args.seeds)
    print(format_report(report))
    if args.output:
        write_report(report, args.output)
        print(f"wrote {args.output}")
    if args.assert_gain is not None:
        gain = report["summary"]["best_adaptive_gain"] or 0.0
        if gain < args.assert_gain:
            print(f"FAIL: best adaptive accuracy-per-FLOP gain {gain:.2f}x < "
                  f"required {args.assert_gain:.2f}x", file=sys.stderr)
            return 1
        print(f"adaptive gain {gain:.2f}x >= {args.assert_gain:.2f}x")
    return 0


def _cmd_trace(args) -> int:
    import numpy as np

    from repro.core import DistributedFilterConfig, DistributedParticleFilter
    from repro.models import LinearGaussianModel
    from repro.prng import make_rng
    from repro.telemetry import run_metadata, summary_table, write_chrome_trace

    model = LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])
    cfg = DistributedFilterConfig(
        n_particles=args.particles, n_filters=args.filters, topology="ring",
        n_exchange=args.exchange, estimator="weighted_mean", seed=args.seed,
        allocation=args.allocation,
    )
    truth = model.simulate(args.steps, make_rng("numpy", seed=args.seed + 1))
    meas = np.asarray(truth.measurements, dtype=np.float64)
    if args.backend == "vectorized":
        pf = DistributedParticleFilter(model, cfg)
        pf.tracer.enabled = True
        pf.initialize()
        run_t0 = pf.tracer.clock()
        for k in range(meas.shape[0]):
            pf.step(meas[k])
        tracer = pf.tracer
    else:
        from repro.backends import MultiprocessDistributedParticleFilter

        with MultiprocessDistributedParticleFilter(
            model, cfg, n_workers=args.workers, transport=args.backend
        ) as pf:
            pf.tracer.enabled = True
            run_t0 = pf.tracer.clock()
            for k in range(meas.shape[0]):
                pf.step(meas[k])
            tracer = pf.tracer
    tracer.add(f"{args.backend} run", "run", run_t0, tracer.clock(),
               attrs={"backend": args.backend, "steps": args.steps,
                      **run_metadata()})
    write_chrome_trace(args.output, tracer.spans, tracer.counters,
                       labels=tracer.labels)
    print(summary_table(tracer.spans, tracer.counters))
    print(f"wrote {args.output} ({len(tracer.spans)} spans) — "
          "open in ui.perfetto.dev or chrome://tracing")
    return 0


def _check_transport(name: str) -> str:
    """Validate a transport name against the registry (exit-2 on unknown).

    Runtime validation instead of static argparse ``choices`` so optional
    transports registered by plugins/extensions are accepted and the error
    always lists what this build actually offers.
    """
    from repro.backends.transport import transport_choices

    choices = sorted(transport_choices())
    if name not in choices:
        raise ValueError(
            f"unknown transport {name!r}; choices: {', '.join(choices)}")
    return name


def _cmd_shard_plan(args) -> int:
    from repro.bench.harness import format_table
    from repro.topology import make_shard_plan, resolve_topology

    topo = resolve_topology(args.topology, args.filters)
    strategies = [args.strategy] if args.strategy else ["contiguous", "strided"]
    rows = []
    for strategy in strategies:
        plan = make_shard_plan(topo, args.shards, strategy=strategy)
        s = plan.summary(n_exchange=args.exchange, state_dim=args.state_dim)
        sizes = s["shard_sizes"]
        rows.append({
            "strategy": strategy,
            "shards": s["n_shards"],
            "filters": s["n_filters"],
            "min_size": min(sizes),
            "max_size": max(sizes),
            "cut_edges": s["cut_edges"],
            "cut_B_per_round": s["cut_bytes_per_round"],
        })
    print(f"{args.topology} topology, N={args.filters}, t={args.exchange}, "
          f"d={args.state_dim}:")
    print(format_table(rows))
    print("only cut-edge particles cross shard boundaries; bytes/round "
          "scale with the cut, not with the population")
    return 0


def _smoke_setup(args):
    """Shared model/config/measurements for the ``run`` and ``chaos`` commands."""
    import numpy as np

    from repro.core import DistributedFilterConfig
    from repro.models import LinearGaussianModel
    from repro.prng import make_rng

    model = LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])
    cfg = DistributedFilterConfig(
        n_particles=args.particles, n_filters=args.filters, topology="ring",
        n_exchange=1, estimator="weighted_mean", seed=args.seed,
    )
    truth = model.simulate(args.steps, make_rng("numpy", seed=args.seed + 1))
    meas = np.asarray(truth.measurements, dtype=np.float64)
    return model, cfg, meas


def _cmd_run(args) -> int:
    import numpy as np

    from repro.core import DistributedParticleFilter

    model, cfg, meas = _smoke_setup(args)

    def drive(pf):
        if args.resume:
            manifest = pf.load_checkpoint(args.resume)
            print(f"resumed {args.resume} at step {manifest['meta']['k']} "
                  f"(schema v{manifest['schema_version']})")
        start = pf.k
        if start >= meas.shape[0]:
            raise ValueError(f"--steps {meas.shape[0]} leaves nothing to run "
                             f"after the resumed step {start}")
        for k in range(start, meas.shape[0]):
            est = pf.step(meas[k])
        if args.checkpoint:
            pf.save_checkpoint(args.checkpoint)
            print(f"wrote checkpoint {args.checkpoint} at step {pf.k}")
        print(f"ran steps {start}..{pf.k - 1}, final estimate "
              f"{np.asarray(est).ravel()[0]:+.6f}")
        return 0

    transport = args.transport
    if transport is not None:
        _check_transport(transport)
    if args.backend == "vectorized" and transport is None:
        return drive(DistributedParticleFilter(model, cfg))
    from repro.backends import MultiprocessDistributedParticleFilter

    with MultiprocessDistributedParticleFilter(
            model, cfg, n_workers=args.workers,
            transport=transport if transport is not None else args.backend,
    ) as pf:
        return drive(pf)


def _cmd_chaos(args) -> int:
    import json

    from repro.backends import MultiprocessDistributedParticleFilter
    from repro.resilience import FaultPlan, Supervisor

    _check_transport(args.transport)
    if args.rebalance and args.respawn:
        raise ValueError("--rebalance and --respawn are mutually exclusive "
                         "recovery rungs")
    model, cfg, meas = _smoke_setup(args)
    plan = FaultPlan.random(
        args.seed, n_workers=args.workers, n_steps=args.steps,
        p_kill=args.p_kill, p_hang=args.p_hang, p_poison=args.p_poison,
        max_kills=args.max_kills, hang_duration=3600.0,
    )
    sup = None if args.no_supervisor else Supervisor(
        beat_timeout=args.beat_timeout,
        checkpoint_on_abort=args.abort_checkpoint,
    )
    print(f"fault plan (seed={args.seed}): "
          + (", ".join(f"{f.kind}@w{f.worker}/k{f.step}" for f in plan) or "clean"))
    with MultiprocessDistributedParticleFilter(
            model, cfg, n_workers=args.workers, transport=args.transport,
            fault_plan=plan, on_failure="heal", respawn_dead=args.respawn,
            rebalance_dead=args.rebalance,
            recv_timeout=args.recv_timeout, supervisor=sup) as pf:
        for k in range(meas.shape[0]):
            pf.step(meas[k])
        report = pf.report.summary()
        diag = pf.diagnostics()
    events = sup.event_log() if sup else []
    print(f"  {'n_failures':>20}: {report['n_failures']}")
    for key in ("retries", "timeouts", "heartbeat_misses", "heartbeat_failures",
                "respawns", "checkpoints_saved", "escalations"):
        print(f"  {key:>20}: {report[key]}")
    print(f"  {'dead_workers':>20}: {diag['dead_workers']}")
    if args.rebalance:
        print(f"  {'owned_counts':>20}: {diag['membership']['owned_counts']}")
    for ev in events:
        print(f"  [k={ev['step']:>3}] w{ev['worker_id']} "
              f"{ev['kind']}: {ev['detail']}")
    if args.output:
        payload = {"seed": args.seed, "transport": args.transport,
                   "steps": args.steps, "plan": plan.to_dicts(),
                   "report": report, "dead_workers": diag["dead_workers"],
                   "membership": diag["membership"],
                   "shard": diag["shard"],
                   "supervisor": sup.summary() if sup else None,
                   "events": events}
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    return 0


def _cmd_report(args) -> int:
    from repro.bench.report import generate_report

    text = generate_report(quick=not args.full)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_platforms(args) -> int:
    from repro.bench import format_table, table3_rows
    from repro.device.scaling import EMBEDDED_PLATFORMS

    print(format_table(table3_rows()))
    print("\nembedded extensions:", ", ".join(EMBEDDED_PLATFORMS))
    return 0


def _cmd_kernels(args) -> int:
    from repro.bench.harness import format_table
    from repro.device.costmodel import CostModel
    from repro.device.spec import get_platform
    from repro.kernels.forms import ExecutionPolicy
    from repro.kernels.registry import CostParams, default_registry

    spec = get_platform(args.platform)
    cm = CostModel(spec)
    reg = default_registry()
    policy = ExecutionPolicy.from_config(args.execution)
    params = CostParams(m=args.particles, state_dim=args.state_dim, n_groups=args.filters)
    rows = []
    for name in reg.names():
        kdef = reg.get(name)
        wl = kdef.workload(params)
        # Every execution form the kernel registers (reference/workgroup
        # builtins plus named extras like "compiled"), and the form the
        # active ExecutionPolicy would actually dispatch.
        forms = "+".join(reg.forms_of(name)) or "cost-only"
        selected = policy.select(kdef)
        rows.append({
            "kernel": name,
            "forms": forms,
            "runs": selected[0] if selected is not None else "-",
            "kflops": wl.flops / 1e3,
            "kB_rd": wl.bytes_read / 1e3,
            "kB_wr": wl.bytes_written / 1e3,
            "syncs": wl.syncs_per_group,
            "launches": wl.launches,
            "us": cm.kernel_def_time(kdef, params) * 1e6,
        })
    print(f"{len(rows)} registered kernels on {spec.name} "
          f"(m={args.particles}, N={args.filters}, d={args.state_dim}, "
          f"execution={args.execution}):")
    print(format_table(rows))
    return 0


def _positive_int(text: str) -> int:
    """argparse ``type`` for counts: a bad value exits 2 naming its flag."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="esthera", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("track", help="run the robotic-arm tracking demo")
    t.add_argument("--particles", type=_positive_int, default=64, help="particles per sub-filter (m)")
    t.add_argument("--filters", type=_positive_int, default=64, help="number of sub-filters (N)")
    t.add_argument("--topology", default="ring", choices=["ring", "torus", "all-to-all", "none"])
    t.add_argument("--exchange", type=int, default=1, help="particles per exchange (t)")
    t.add_argument("--estimator", default="weighted_mean", choices=["weighted_mean", "max_weight"])
    t.add_argument("--joints", type=_positive_int, default=5)
    t.add_argument("--steps", type=_positive_int, default=100)
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(func=_cmd_track)

    b = sub.add_parser("bench", help="regenerate one figure/table, or the allocation report")
    b.add_argument("figure", choices=["fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                                      "fig9", "tables", "allocation"])
    b.add_argument("--output", "-o", default=None,
                   help="(allocation) write the JSON report here")
    b.add_argument("--seeds", type=_positive_int, default=16,
                   help="(allocation) seeds averaged per workload/policy cell")
    b.add_argument("--assert-gain", type=float, default=None, metavar="FACTOR",
                   help="(allocation) fail unless some adaptive policy beats the "
                        "equal split's accuracy-per-FLOP by this factor")
    b.set_defaults(func=_cmd_bench)

    tr = sub.add_parser("trace", help="write a merged Chrome/Perfetto trace of a short run")
    tr.add_argument("output", help="trace_event JSON output path (open in ui.perfetto.dev)")
    tr.add_argument("--backend", default="shm", choices=["vectorized", "pipe", "shm"])
    tr.add_argument("--particles", type=_positive_int, default=64, help="particles per sub-filter (m)")
    tr.add_argument("--filters", type=_positive_int, default=16, help="number of sub-filters (N)")
    tr.add_argument("--exchange", type=int, default=2, help="particles per exchange (t)")
    tr.add_argument("--workers", type=_positive_int, default=2, help="worker processes (multiprocess)")
    tr.add_argument("--steps", type=_positive_int, default=5)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--allocation", default="fixed", choices=["fixed", "ess", "mass"],
                    help="particle allocation policy; adaptive policies surface "
                         "the alloc.* counters and the allocation table")
    tr.set_defaults(func=_cmd_trace)

    rn = sub.add_parser("run", help="linear-Gaussian smoke run with checkpoint/resume")
    rn.add_argument("--backend", default="vectorized", choices=["vectorized", "pipe", "shm"])
    rn.add_argument("--transport", default=None, metavar="NAME",
                    help="multiprocess data plane (pipe/shm/tcp...); implies "
                         "the multiprocess backend; unknown names exit 2 "
                         "with the registered choices")
    rn.add_argument("--particles", type=_positive_int, default=32, help="particles per sub-filter (m)")
    rn.add_argument("--filters", type=_positive_int, default=8, help="number of sub-filters (N)")
    rn.add_argument("--workers", type=_positive_int, default=2, help="worker processes (multiprocess)")
    rn.add_argument("--steps", type=_positive_int, default=20, help="total steps of the trajectory")
    rn.add_argument("--seed", type=int, default=0)
    rn.add_argument("--checkpoint", default=None, metavar="FILE",
                    help="save a resumable snapshot after the last step")
    rn.add_argument("--resume", default=None, metavar="FILE",
                    help="restore this checkpoint and continue the same "
                         "trajectory bit-identically")
    rn.set_defaults(func=_cmd_run)

    c = sub.add_parser("chaos", help="seeded FaultPlan soak with heartbeat supervision")
    c.add_argument("--transport", default="pipe", metavar="NAME",
                   help="multiprocess data plane (pipe/shm/tcp...); unknown "
                        "names exit 2 with the registered choices")
    c.add_argument("--workers", type=_positive_int, default=2)
    c.add_argument("--particles", type=_positive_int, default=16, help="particles per sub-filter (m)")
    c.add_argument("--filters", type=_positive_int, default=8, help="number of sub-filters (N)")
    c.add_argument("--steps", type=_positive_int, default=12)
    c.add_argument("--seed", type=int, default=0, help="seeds both the run and the fault plan")
    c.add_argument("--p-kill", type=float, default=0.05, help="per-(worker,step) SIGKILL probability")
    c.add_argument("--p-hang", type=float, default=0.0, help="per-(worker,step) hang probability")
    c.add_argument("--p-poison", type=float, default=0.05, help="per-(worker,step) NaN-weights probability")
    c.add_argument("--max-kills", type=int, default=1, help="cap on killed workers (keeps a quorum)")
    c.add_argument("--respawn", action="store_true",
                   help="respawn dead blocks instead of leaving the topology healed")
    c.add_argument("--rebalance", action="store_true",
                   help="rebalance a dead worker's sub-filters onto the "
                        "survivors (elastic sharding)")
    c.add_argument("--no-supervisor", action="store_true",
                   help="disable heartbeat supervision (deadline-only detection)")
    c.add_argument("--beat-timeout", type=float, default=0.25,
                   help="supervisor heartbeat deadline in seconds")
    c.add_argument("--recv-timeout", type=float, default=30.0,
                   help="master gather deadline in seconds")
    c.add_argument("--abort-checkpoint", default=None, metavar="FILE",
                   help="write a last-ditch checkpoint here if escalation aborts the run")
    c.add_argument("--output", "-o", default=None, metavar="FILE",
                   help="export the report, fault plan, and event log as JSON")
    c.set_defaults(func=_cmd_chaos)

    r = sub.add_parser("report", help="regenerate the full evaluation report")
    r.add_argument("--output", "-o", default=None, help="write Markdown to this file")
    r.add_argument("--full", action="store_true", help="higher statistical effort")
    r.set_defaults(func=_cmd_report)

    sp = sub.add_parser("shard-plan",
                        help="partition a topology into shards and report "
                             "cut-edge sizes and wire bytes per round")
    sp.add_argument("--topology", default="ring",
                    choices=["ring", "torus", "all-to-all", "none"])
    sp.add_argument("--filters", type=_positive_int, default=64,
                    help="number of sub-filters (N)")
    sp.add_argument("--shards", type=_positive_int, default=2,
                    help="number of shards (worker processes/hosts)")
    sp.add_argument("--strategy", default=None,
                    choices=["contiguous", "strided"],
                    help="partitioning strategy (default: show both)")
    sp.add_argument("--exchange", type=int, default=1,
                    help="particles per exchange edge (t)")
    sp.add_argument("--state-dim", type=_positive_int, default=9, help="state dimension")
    sp.set_defaults(func=_cmd_shard_plan)

    pl = sub.add_parser("platforms", help="list simulated platforms")
    pl.set_defaults(func=_cmd_platforms)

    k = sub.add_parser("kernels", help="list registered kernels and predicted costs")
    k.add_argument("--platform", default="gtx-580", help="device spec name (see `platforms`)")
    k.add_argument("--particles", type=_positive_int, default=512, help="particles per sub-filter (m)")
    k.add_argument("--filters", type=_positive_int, default=64, help="number of sub-filters (N)")
    k.add_argument("--state-dim", type=_positive_int, default=9, help="state dimension")
    k.add_argument("--execution", choices=["reference", "compiled"], default="reference",
                   help="execution policy used for the `runs` column "
                        "(which form each kernel would dispatch)")
    k.set_defaults(func=_cmd_kernels)
    return p


def main(argv: list[str] | None = None) -> int:
    from repro.resilience.errors import CheckpointError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CheckpointError) as exc:
        # Input the parser cannot check (an unknown platform or transport,
        # an impossible shard plan, a checkpoint that cannot be resumed):
        # one diagnostic line and the parser's own exit status instead of a
        # traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
