"""The benchmark's workloads, and the entry point that runs one of them.

``run.py`` starts this file once per workload in a fresh interpreter::

    PYTHONPATH=src python3 perfbench/workloads.py WORKLOAD --seed N \\
        --seconds S --trace 0|1 [--trace-dir DIR]

It prints one JSON report as its only line on standard output. Each run:

1. builds the inputs from ``--seed`` (truth trajectories, filter seeds, the
   readiness mask and the churn schedule);
2. sets the system up :data:`SETUP_REPS` times and keeps the last;
3. warms up, then measures for ``--seconds`` (or, with ``--trace 1``, runs
   a quarter of that untraced and a quarter with the layer recorders on);
4. steps on untimed until the fixed tracking-error window is filled, and
   runs the correctness gates.

Throughout 2 and 3 a :class:`hostspeed.HostClock` probes the host's speed,
and the end-to-end timings are restated at its reference speed; the report's
``raw_metrics`` keeps them as measured.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
import time
import traceback

import numpy as np

from hostspeed import HostClock
from layers import (
    METER_FIELDS,
    Meter,
    SpanHook,
    cpu_seconds,
    meter_draws,
    overhead_frac,
    peak_rss_mb,
    self_time_by_name,
    timed_method,
)
from models import AR1Model, TimedAR1, TimedArm

from repro.core import DistributedFilterConfig, DistributedParticleFilter
from repro.kernels.registry import CostParams, kernel_cost_attrs
from repro.models import RobotArmModel, lemniscate, simulate_arm_tracking
from repro.prng import make_rng
from repro.telemetry import Tracer, write_chrome_trace

#: set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 9
#: a traced run spends this share of ``--seconds`` untraced (the overhead
#: baseline) and the same share traced.
TRACE_SHARE = 0.25
#: the host clock probes this often while a phase measures.
PROBE_EVERY_S = 0.05
#: the open loop probes only while the next tick is at least this far off.
PROBE_SLACK_S = 0.005

END_TO_END = {
    "steps_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p99_ms": "ms",
    "cpu_ms_per_step": "ms",
    "tracking_error": "state-unit",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

STAGES = ("sampling", "heal", "sort", "estimate", "exchange", "resample",
          "allocate", "fused")
KERNELS = ("sort", "route_pairwise", "fused_step")
SESSION_PARTS = ("submit", "queue_wait", "cohort_step", "demux", "attach",
                 "detach")

#: per-round layer metrics of a traced run. Times a workload cannot incur
#: are shares (``%``) of the round, so that a layer a workload never enters
#: reads 0 rather than a time.
PER_LAYER = {
    "round_ms": "ms",
    "models.transition_ms": "ms",
    "models.log_likelihood_ms": "ms",
    "models.calls": "count",
    "prng.rand_ms": "ms",
    **{f"engine.{s}_pct": "%" for s in STAGES},
    "engine.dispatch_pct": "%",
    **{f"kernels.{k}.{f}": u for k in KERNELS
       for f, u in (("pct", "%"), ("calls", "count"), ("flops", "flop"),
                    ("bytes", "B"))},
    **{f"sessions.{p}_pct": "%" for p in SESSION_PARTS},
    "sessions.cohorts": "count",
    "sessions.scratch_hit_ratio": "ratio",
    "backends.master_cpu_ms": "ms",
    "backends.worker_cpu_pct": "%",
    "backends.worker_busy_pct": "%",
    "backends.master_pct": "%",
    "backends.exchange_bytes": "B",
    "backends.transport_fallbacks": "count",
    "resilience.heartbeat_misses": "count",
    "resilience.retries": "count",
    "telemetry.overhead_frac": "ratio",
}


def derived_seeds(*key: int, n: int = 1) -> list[int]:
    """Independent 32-bit seeds derived from *key*."""
    return [int(s) for s in np.random.SeedSequence(list(key)).generate_state(n)]


class Sample:
    """One measured phase of at most *capacity* rounds: each round's start,
    service time, latency and step count, and the phase's wall and CPU time.

    The records are allocated up front, so the benchmark's own memory does
    not grow with the number of rounds a run completes. Every metric is
    taken over every round of the phase. *clock* probes the host at the
    phase's start and end (and the workload probes it in between); the CPU
    it spends is left out of the phase's, and :meth:`close` gives each round
    the host's speed factor at its start (``factor_r``).
    """

    def __init__(self, capacity: int, clock: HostClock):
        n = max(capacity, 1)
        self.start_r = np.zeros(n)
        self.busy_r = np.zeros(n)
        self.lat_r = np.zeros(n)
        self.steps_r = np.zeros(n, dtype=np.int64)
        self.factor_r = np.ones(n)
        self.rounds = 0
        self.failed = 0
        self.wall = self.cpu_own = self.cpu_kids = 0.0
        self.clock = clock
        clock.probe()
        self._probe_cpu0 = clock.cpu
        self._cpu0 = cpu_seconds()
        self.t0 = time.perf_counter()

    def add(self, start: float, busy: float, latency: float, steps: int = 1,
            failed: int = 0) -> None:
        """One round: its start, its service time, the latency of each of
        its *steps*, and how many of them failed."""
        i = self.rounds
        self.start_r[i], self.busy_r[i], self.lat_r[i], self.steps_r[i] = (
            start, busy, latency, steps)
        self.rounds = i + 1
        self.failed += failed

    def close(self) -> "Sample":
        self.wall = time.perf_counter() - self.t0
        own, kids = cpu_seconds()
        probe_cpu = self.clock.cpu - self._probe_cpu0
        self.cpu_own = own - self._cpu0[0] - probe_cpu
        self.cpu_kids = kids - self._cpu0[1]
        self.clock.probe()
        n = self.rounds
        if not n:
            raise RuntimeError("a measured phase ran no rounds; the workload "
                               "used up its inputs before it")
        self.start_r, self.busy_r, self.lat_r, self.steps_r = (
            self.start_r[:n], self.busy_r[:n], self.lat_r[:n], self.steps_r[:n])
        self.factor_r = self.clock.factors(self.start_r)
        return self

    @property
    def attempted(self) -> int:
        return int(self.steps_r.sum())

    @property
    def busy(self) -> float:
        return float(self.busy_r.sum())

    def s_per_round(self) -> float:
        return self.busy / self.rounds


class Workload:
    """One benchmark workload: inputs, set-up, a measured loop and gates."""

    name = ""
    #: rounds available after set-up; a phase ends early if it runs out.
    n_rounds = 0
    warmup = 0
    #: rounds after warm-up over which ``tracking_error`` is averaged.
    err_rounds = 0
    #: correctness ceiling on ``tracking_error``.
    error_ceiling = 0.0
    #: the :data:`hostspeed.PROBES` kind whose slowdown this workload's
    #: rounds follow.
    probe = ""
    #: ticks fall due on a schedule rather than when the last one returns.
    open_loop = False

    def __init__(self, seed: int, meter: Meter | None = None):
        self.seed = int(seed)
        self.meter = meter
        self.clock = HostClock(self.probe)
        self.k = 0
        self.failures = 0

    def note_failure(self, what: str) -> None:
        if not self.failures:
            print(f"{self.name}: {what} failed:", file=sys.stderr)
            traceback.print_exc()
        self.failures += 1

    # -- what each workload provides -----------------------------------------
    def setup(self) -> None:
        """Build the system and run its first round (timed as ``setup_s``)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop and release the system (idempotent)."""

    def round(self):
        """Advance the system by one round (a step, or a tick)."""
        raise NotImplementedError

    def measure(self, seconds: float, after_round=None) -> Sample:
        raise NotImplementedError

    def tracking_error(self) -> float:
        raise NotImplementedError

    def gates(self, err: float) -> dict[str, tuple[bool, str]]:
        """Correctness checks, run after the timed region; *err* is the
        run's ``tracking_error``."""
        raise NotImplementedError

    def traced(self, seconds: float, tracer: Tracer) -> tuple[Sample, dict]:
        """Measure with the layer recorders attached; returns the layers."""
        raise NotImplementedError

    # -- shared --------------------------------------------------------------
    def warm(self) -> None:
        while self.k < 1 + self.warmup:
            self.round()

    def finish(self) -> None:
        while self.k < 1 + self.warmup + self.err_rounds:
            self.round()

    def error_gate(self, err: float) -> tuple[bool, str]:
        ok = bool(np.isfinite(err) and err < self.error_ceiling)
        return ok, f"tracking_error {err:.6g} (ceiling {self.error_ceiling:g})"


# ---------------------------------------------------------------------------
# Closed loop: one client stepping one filter
# ---------------------------------------------------------------------------

class SoloWorkload(Workload):
    """A closed loop: one client sends the next measurement when the last
    ``step()`` returns. ``n_rounds`` includes the set-up round."""

    def __init__(self, seed: int, meter: Meter | None = None):
        super().__init__(seed, meter)
        self.model = self.make_model(meter)
        self.truth, self.meas, self.ctrl = self.make_truth()
        self.ests = np.full((self.n_rounds, self.model.state_dim), np.nan)
        self.pf = None

    def make_model(self, meter):
        raise NotImplementedError

    def make_truth(self):
        raise NotImplementedError

    def build(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.k = 0
        self.pf = self.build()
        self.pf.initialize()
        self.round()

    def close(self) -> None:
        self.pf = None

    def round(self) -> bool:
        k = self.k
        self.k += 1
        try:
            est = self.pf.step(self.meas[k], None if self.ctrl is None else self.ctrl[k])
        except Exception:
            self.note_failure(f"step {k}")
            return False
        self.ests[k] = est
        return bool(np.isfinite(est).all())

    def measure(self, seconds: float, after_round=None) -> Sample:
        sample = Sample(self.n_rounds - self.k, self.clock)
        deadline = sample.t0 + seconds
        next_probe = sample.t0 + PROBE_EVERY_S
        while self.k < self.n_rounds:
            a = time.perf_counter()
            if a >= deadline:
                break
            if a >= next_probe:
                self.clock.probe()
                next_probe = a + PROBE_EVERY_S
                a = time.perf_counter()
            ok = self.round()
            b = time.perf_counter()
            sample.add(a, b - a, b - a, failed=not ok)
            if after_round is not None:
                after_round()
        return sample.close()

    def tracking_error(self) -> float:
        lo = 1 + self.warmup
        ks = range(lo, lo + self.err_rounds)
        return float(np.mean([self.model.estimate_error(self.ests[k], self.truth[k])
                              for k in ks]))

    def parity(self, reference_pf, n: int) -> tuple[bool, str]:
        """Bitwise equality of the first *n* estimates with *reference_pf*'s."""
        ref = np.array([reference_pf.step(self.meas[k],
                                          None if self.ctrl is None else self.ctrl[k])
                        for k in range(n)])
        same = np.array_equal(ref, self.ests[:n])
        return same, f"first {n} estimates {'bit-identical' if same else 'DIFFER'}"

    # -- traced run for the in-process filters --------------------------------
    def cost_params(self) -> CostParams:
        """The shape kernel cost signatures are evaluated at."""
        cfg = self.pf.config
        return CostParams(m=cfg.n_particles, state_dim=self.model.state_dim,
                          n_groups=cfg.n_filters,
                          dtype_bytes=np.dtype(cfg.dtype).itemsize,
                          n_exchange=cfg.n_exchange)

    def traced(self, seconds: float, tracer: Tracer) -> tuple[Sample, dict]:
        pf = self.pf
        hook = pf.pipeline.add_hook(SpanHook(tracer))
        kernel_s0 = dict(pf.kernel_seconds)
        calls0 = dict(pf.kernel_hook.kernel_calls)
        meter0 = self.meter.totals()
        self.meter.on = True
        try:
            sample = self.measure(seconds)
        finally:
            self.meter.on = False
            pf.pipeline.remove_hook(hook)
        layers = _base_layers(sample, _sum_rows(_meter_delta(self.meter, meter0)))
        wall = sample.busy
        stage_spans = [s for s in tracer.spans if s.kind == "stage"]
        _stage_layers(layers, self_time_by_name(stage_spans + _model_spans(tracer)), wall)
        layers["engine.dispatch_pct"] = 100.0 * (
            wall - sum(s.duration for s in stage_spans)) / wall
        kernel_s = _delta(pf.kernel_seconds, kernel_s0)
        calls = _delta(pf.kernel_hook.kernel_calls, calls0)
        _kernel_layers(layers, kernel_s, calls, self.cost_params(), wall,
                       sample.rounds)
        return sample, layers


class ArmTrack(SoloWorkload):
    """The paper's robot-arm model tracking a lemniscate (Fig. 3/4 shape).

    Sampling and the model dominate; the fused path, sessions and the
    transports are not used, so this is the no-change control for them.
    """

    name = "arm-track"
    n_rounds = 1 + 20 + 3000
    warmup = 20
    err_rounds = 2000
    error_ceiling = 0.5
    probe = "arrays"

    def make_model(self, meter):
        return RobotArmModel() if meter is None else TimedArm(meter)

    def make_truth(self):
        truth_seed, self.filter_seed = derived_seeds(self.seed, n=2)
        sim = RobotArmModel()
        pos, vel = lemniscate(self.n_rounds, h_s=sim.params.h_s)
        t = simulate_arm_tracking(sim, pos, vel, make_rng("numpy", truth_seed))
        return t.states, t.measurements, t.controls

    def config(self) -> DistributedFilterConfig:
        return DistributedFilterConfig(n_particles=64, n_filters=256, topology="ring",
                                       n_exchange=1, seed=self.filter_seed)

    def build(self):
        return DistributedParticleFilter(self.model, self.config())

    def gates(self, err):
        finite = bool(np.isfinite(self.ests[:self.k]).all())
        return {"finite_estimates": (finite, f"{self.k} estimates, all finite"
                                     if finite else "non-finite estimate"),
                "tracking_error": self.error_gate(err)}


class AR1Workload(SoloWorkload):
    """A closed loop over :class:`AR1Model` trajectories of width :attr:`d`."""

    d = 1

    def make_model(self, meter):
        return AR1Model(d=self.d) if meter is None else TimedAR1(meter, d=self.d)

    def make_truth(self):
        truth_seed, self.filter_seed = derived_seeds(self.seed, n=2)
        states, meas = AR1Model(d=self.d).truth(self.n_rounds, 1,
                                                np.random.default_rng(truth_seed))
        return states, meas, None


class FusedSmall(AR1Workload):
    """A scalar AR(1) on the compiled, fused round at a small shape.

    The round is bound by interpreter and dispatch overhead, not model work,
    so hook, dispatch and fused-kernel changes show here.
    """

    name = "fused-small"
    n_rounds = 1 + 100 + 400_000
    warmup = 100
    err_rounds = 20_000
    error_ceiling = 0.5
    parity_rounds = 500
    probe = "interpreter"

    def config(self, execution: str = "compiled") -> DistributedFilterConfig:
        return DistributedFilterConfig(n_particles=16, n_filters=16, topology="ring",
                                       n_exchange=1, seed=self.filter_seed,
                                       execution=execution)

    def build(self):
        return DistributedParticleFilter(self.model, self.config())

    def gates(self, err):
        ref = DistributedParticleFilter(AR1Model(d=1), self.config("reference"))
        ref.initialize()
        return {"reference_parity": self.parity(ref, self.parity_rounds),
                "tracking_error": self.error_gate(err)}


class ShardShm(AR1Workload):
    """The multiprocess filter over shared memory with per-filter streams.

    A 64-wide payload makes scatter/gather, routing and the shm data plane
    the work, while per-particle compute stays tiny.
    """

    name = "shard-shm"
    n_rounds = 1 + 20 + 8000
    warmup = 20
    err_rounds = 4000
    error_ceiling = 1.0
    parity_rounds = 50
    n_workers = 2
    d = 64
    probe = "arrays"

    def config(self) -> DistributedFilterConfig:
        return DistributedFilterConfig(n_particles=64, n_filters=128, topology="ring",
                                       n_exchange=16, seed=self.filter_seed,
                                       rng_streams="filter")

    def build(self, n_workers: int | None = None, transport: str = "shm"):
        from repro.backends import MultiprocessDistributedParticleFilter

        return MultiprocessDistributedParticleFilter(
            self.model, self.config(), n_workers=n_workers or self.n_workers,
            transport=transport)

    def close(self) -> None:
        if self.pf is not None:
            self.pf.close()
        super().close()

    def gates(self, err):
        ref = self.build(n_workers=1, transport="pipe")
        try:
            ref.initialize()
            parity = self.parity(ref, self.parity_rounds)
        finally:
            ref.close()
        return {"one_worker_parity": parity,
                "tracking_error": self.error_gate(err)}

    def cost_params(self) -> CostParams:
        # Workers sort, and the master routes, one worker's block per call.
        params = super().cost_params()
        return dataclasses.replace(params,
                                   n_groups=params.n_groups // self.n_workers)

    def traced(self, seconds: float, tracer: Tracer) -> tuple[Sample, dict]:
        from repro.topology import make_shard_plan

        pf = self.pf
        master = os.getpid()
        per_round: list[list] = []
        kernel_s0 = dict(pf.kernel_seconds)
        diag0 = pf.diagnostics()
        fallbacks0 = pf.transport_fallbacks
        meter0 = self.meter.totals()
        pf.tracer.drain()
        pf.tracer.enabled = True
        self.meter.on = True
        try:
            sample = self.measure(seconds,
                                  after_round=lambda: per_round.append(pf.tracer.drain()[0]))
        finally:
            self.meter.on = False
            pf.tracer.enabled = False
        spans = [s for r in per_round for s in r]
        tracer.merge(spans)
        tracer.labels.update(pf.tracer.labels)
        used = _meter_delta(self.meter, meter0)
        layers = _base_layers(sample, _sum_rows(used))
        wall = sample.busy
        model_s = {pid: v["transition"] + v["log_likelihood"]
                   for pid, v in used.items()}
        worker_stage: dict[int, dict[str, float]] = {}
        busy = 0.0
        calls: dict[str, float] = {}
        for r in per_round:
            round_busy: dict[int, float] = {}
            for s in r:
                if s.kind == "kernel":
                    calls[s.name] = calls.get(s.name, 0) + 1
                elif s.kind == "stage" and s.pid == master:
                    name = (s.attrs or {}).get("kernel")
                    if name:
                        calls[name] = calls.get(name, 0) + 1
                    layers[f"engine.{s.name}_pct"] += 100.0 * s.duration / wall
                elif s.kind == "stage":
                    stages = worker_stage.setdefault(s.pid, {})
                    stages[s.name] = stages.get(s.name, 0.0) + s.duration
                    round_busy[s.pid] = round_busy.get(s.pid, 0.0) + s.duration
            busy += max(round_busy.values(), default=0.0)
        for name in {n for stages in worker_stage.values() for n in stages}:
            slowest = max(stages.get(name, 0.0)
                          - (model_s.get(pid, 0.0) if name == "sampling" else 0.0)
                          for pid, stages in worker_stage.items())
            layers[f"engine.{name}_pct"] += 100.0 * slowest / wall
        _kernel_layers(layers, _delta(pf.kernel_seconds, kernel_s0), calls,
                       self.cost_params(), wall, sample.rounds)
        cfg = pf.config
        plan = make_shard_plan(pf.topology, self.n_workers)
        diag = pf.diagnostics()
        layers.update({
            "backends.worker_busy_pct": 100.0 * busy / wall,
            "backends.master_pct": 100.0 * (wall - busy) / wall,
            "backends.exchange_bytes": float(plan.cut_bytes_per_round(
                cfg.n_exchange, self.model.state_dim,
                state_itemsize=np.dtype(pf.dtype_policy.state).itemsize,
                weight_itemsize=np.dtype(pf.dtype_policy.weight).itemsize)),
            "backends.transport_fallbacks": float(pf.transport_fallbacks - fallbacks0),
            "resilience.heartbeat_misses": float(diag["heartbeat_misses"]
                                                 - diag0["heartbeat_misses"]),
            "resilience.retries": float(diag["retries"] - diag0["retries"]),
        })
        return sample, layers


# ---------------------------------------------------------------------------
# Open loop: many sessions through one SessionManager
# ---------------------------------------------------------------------------

class SessionsChurn(Workload):
    """Many one-sub-filter sessions on a schedule, with attach/detach churn.

    An open loop: ticks fall due at :attr:`rate` per second whether or not
    the last one finished, and latency runs from the due time, so a stall
    delays every later tick. Even slots run reference execution and odd
    slots compiled, which gives two cohorts. Each tick a seeded tenth of the
    sessions submit nothing (partial-tick gather/scatter); every
    :attr:`churn_every` ticks :attr:`churn_n` sessions leave and as many
    join in their slots.

    The generator polls the clock until a tick is due rather than sleeping,
    and the CPU it spends polling is left out of ``cpu_ms_per_step``. When
    the process slept between ticks, each tick started with cold caches and
    took about 20% longer, by an amount that changed with whatever the
    host's other tenants ran in the meantime. The host clock probes in the
    same idle time, never within :data:`PROBE_SLACK_S` of a tick's due time.
    """

    name = "sessions-churn"
    probe = "interpreter"
    open_loop = True
    n_sessions = 512
    particles = 32
    #: ticks due per second: a quarter to a third of the closed-loop tick
    #: capacity of a 2-core host, so queues stay short even while neighbours
    #: slow the host, unless the session layer itself slows.
    rate = 40.0
    n_rounds = 1 + 50 + 2500
    warmup = 50
    err_rounds = 400
    error_ceiling = 0.5
    idle_share = 0.1
    churn_every = 100
    churn_n = 8
    #: slots never churned; their sessions are checked against solo filters.
    parity_slots = tuple(range(8))

    def __init__(self, seed: int, meter: Meter | None = None):
        super().__init__(seed, meter)
        S, T = self.n_sessions, self.n_rounds
        self.model = AR1Model(d=1) if meter is None else TimedAR1(meter, d=1)
        truth_seed, mask_seed, churn_seed = derived_seeds(self.seed, n=3)
        self.truth, meas = AR1Model(d=1).truth(T, S, np.random.default_rng(truth_seed))
        self.meas = meas[:, :, None]
        rng = np.random.default_rng(mask_seed)
        idle = np.argsort(rng.random((T, S)), axis=1)[:, :int(S * self.idle_share)]
        self.ready = np.ones((T, S), dtype=bool)
        np.put_along_axis(self.ready, idle, False, axis=1)
        self.ready[0] = True  # the set-up round steps every session once
        rng = np.random.default_rng(churn_seed)
        churnable = np.arange(len(self.parity_slots), S)
        self.churn = {k: rng.choice(churnable, self.churn_n, replace=False)
                      for k in range(self.churn_every, T, self.churn_every)}
        # Every session's id and config, built up front so that set-up and
        # the timed ticks measure the session layer, not the client's
        # bookkeeping. Session (slot j, generation g) is id "s<j>g<g>".
        gens = [(j, 0) for j in range(S)]
        gen = np.zeros(S, dtype=np.int64)
        for k in sorted(self.churn):
            gen[self.churn[k]] += 1
            gens += [(int(j), int(gen[j])) for j in self.churn[k]]
        self.plan = {(j, g): (f"s{j}g{g}", DistributedFilterConfig(
            n_particles=self.particles, n_filters=1, n_exchange=0,
            seed=derived_seeds(self.seed, j, g)[0],
            execution="reference" if j % 2 == 0 else "compiled")) for j, g in gens}
        self.ests = np.full((T, S), np.nan)
        self.mgr = None
        self.late: list[float] = []
        self._cohort_starts: list[tuple[float, int]] | None = None

    def setup(self) -> None:
        from repro.sessions import SessionManager

        self.k = 0
        self.gen = [0] * self.n_sessions
        self.sids = [self.plan[(j, 0)][0] for j in range(self.n_sessions)]
        self.slot_of = {sid: j for j, sid in enumerate(self.sids)}
        self.mgr = SessionManager(max_queue=4)
        for j, sid in enumerate(self.sids):
            self.mgr.attach(sid, self.model, self.plan[(j, 0)][1])
        self.round()

    def close(self) -> None:
        self.mgr = None

    def round(self) -> tuple[int, int]:
        """One tick; returns ``(session-steps attempted, failed)``."""
        k = self.k
        self.k += 1
        mgr, sids, slot_of = self.mgr, self.sids, self.slot_of
        for j in self.churn.get(k, ()):
            mgr.detach(sids[j])
            del slot_of[sids[j]]
            self.gen[j] += 1
            sid, config = self.plan[(j, self.gen[j])]
            mgr.attach(sid, self.model, config)
            sids[j], slot_of[sid] = sid, j
        slots = np.flatnonzero(self.ready[k])
        meas, ests = self.meas[k], self.ests[k]
        try:
            for j in slots.tolist():
                mgr.submit(sids[j], meas[j])
            results = mgr.tick()
        except Exception:
            self.note_failure(f"tick {k}")
            return len(slots), len(slots)
        for res in results:
            ests[slot_of[res.session_id]] = res.estimate[0]
        return len(slots), int(np.count_nonzero(~np.isfinite(ests[slots])))

    def measure(self, seconds: float, after_round=None) -> Sample:
        sample = Sample(self.n_rounds - self.k, self.clock)
        waits = polled = 0.0
        next_probe = sample.t0 + PROBE_EVERY_S
        self.late = []
        while self.k < self.n_rounds:
            due = sample.t0 + len(self.late) / self.rate
            if due >= sample.t0 + seconds:
                break
            now = time.perf_counter()
            if now < due:
                if now >= next_probe and due - now > PROBE_SLACK_S:
                    self.clock.probe()
                    next_probe = now + PROBE_EVERY_S
                c = time.process_time()
                while time.perf_counter() < due:
                    pass
                polled += time.process_time() - c
            start = time.perf_counter()
            self.late.append(start - due)
            starts = self._cohort_starts
            if starts is not None:
                starts.clear()
            n, bad = self.round()
            end = time.perf_counter()
            if starts is not None:
                waits += sum(rows * (s - due) for s, rows in starts)
            sample.add(start, end - start, end - due, steps=n, failed=bad)
        self.queue_wait_s = waits
        sample.close()
        sample.cpu_own -= polled
        return sample

    def tracking_error(self) -> float:
        lo = 1 + self.warmup
        window = slice(lo, lo + self.err_rounds)
        ready = self.ready[window]
        return float(np.mean(np.abs(self.ests[window] - self.truth[window])[ready]))

    def gates(self, err):
        replays, mismatched = 0, []
        for j in self.parity_slots:
            solo = DistributedParticleFilter(AR1Model(d=1), self.plan[(j, 0)][1])
            solo.initialize()
            ks = np.flatnonzero(self.ready[:self.k, j])
            ref = np.array([solo.step(self.meas[k, j])[0] for k in ks])
            replays += len(ks)
            if not np.array_equal(ref, self.ests[ks, j]):
                mismatched.append(j)
        ok = not mismatched
        detail = (f"{len(self.parity_slots)} sessions, {replays} steps bit-identical"
                  if ok else f"slots {mismatched} differ from solo filters")
        return {"solo_parity": (ok, detail), "tracking_error": self.error_gate(err)}

    def traced(self, seconds: float, tracer: Tracer) -> tuple[Sample, dict]:
        mgr = self.mgr
        cohorts = list(mgr.cohorts.values())
        starts: list[tuple[float, int]] = []
        self._cohort_starts = starts
        undo = [timed_method(mgr, name, tracer, "sessions")
                for name in ("submit", "tick", "attach", "detach")]
        undo += [timed_method(c, "step", tracer, "sessions",
                              on_start=lambda t, ready, *a: starts.append((t, len(ready))))
                 for c in cohorts]
        hooks = [(c, c.pipeline.add_hook(SpanHook(tracer))) for c in cohorts]
        kernel_s0 = [dict(c.kernel_hook.kernel_seconds) for c in cohorts]
        calls0 = [dict(c.kernel_hook.kernel_calls) for c in cohorts]
        scratch0 = mgr.stats()["scratch"]
        meter0 = self.meter.totals()
        self.meter.on = True
        try:
            sample = self.measure(seconds)
        finally:
            self.meter.on = False
            self._cohort_starts = None
            for c, hook in hooks:
                c.pipeline.remove_hook(hook)
            for u in undo:
                u()
        layers = _base_layers(sample, _sum_rows(_meter_delta(self.meter, meter0)))
        wall = sample.busy
        total, cohort_steps = {}, 0
        for s in tracer.spans:
            if s.kind == "sessions":
                total[s.name] = total.get(s.name, 0.0) + s.duration
                cohort_steps += s.name == "step"
        stage_spans = [s for s in tracer.spans if s.kind == "stage"]
        _stage_layers(layers, self_time_by_name(stage_spans + _model_spans(tracer)), wall)
        in_stages = sum(s.duration for s in stage_spans)
        for part in ("submit", "attach", "detach"):
            layers[f"sessions.{part}_pct"] = 100.0 * total.get(part, 0.0) / wall
        layers["sessions.cohort_step_pct"] = 100.0 * total.get("step", 0.0) / wall
        layers["sessions.demux_pct"] = 100.0 * (total.get("tick", 0.0)
                                                - total.get("step", 0.0)) / wall
        layers["engine.dispatch_pct"] = 100.0 * (total.get("step", 0.0) - in_stages) / wall
        # Queue wait is a share of latency, not of the round: the time from
        # a tick falling due to its session's cohort starting to step.
        layers["sessions.queue_wait_pct"] = (
            100.0 * self.queue_wait_s / float(sample.lat_r @ sample.steps_r))
        kernel_s, calls = {}, {}
        for c, k0, c0 in zip(cohorts, kernel_s0, calls0):
            for name, v in _delta(c.kernel_hook.kernel_seconds, k0).items():
                kernel_s[name] = kernel_s.get(name, 0.0) + v
            for name, v in _delta(c.kernel_hook.kernel_calls, c0).items():
                calls[name] = calls.get(name, 0) + v
        # A cohort step runs one sub-filter per ready session.
        rows = max(1, round(sample.attempted / max(1, cohort_steps)))
        params = CostParams(m=self.particles, state_dim=1, n_groups=rows,
                            dtype_bytes=4, n_exchange=0)
        _kernel_layers(layers, kernel_s, calls, params, wall, sample.rounds)
        scratch = mgr.stats()["scratch"]
        hits = scratch["hits"] - scratch0["hits"]
        misses = scratch["misses"] - scratch0["misses"]
        layers["sessions.cohorts"] = float(len(mgr.cohorts))
        layers["sessions.scratch_hit_ratio"] = hits / max(1, hits + misses)
        return sample, layers


WORKLOADS = {w.name: w for w in (ArmTrack, FusedSmall, SessionsChurn, ShardShm)}


# ---------------------------------------------------------------------------
# Layer arithmetic shared by the traced runs
# ---------------------------------------------------------------------------

def _delta(now: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in now.items() if v - before.get(k, 0)}


def _meter_delta(meter: Meter, before: dict) -> dict:
    """Per-process meter totals accrued since the *before* snapshot."""
    out = {}
    for pid, row in meter.totals().items():
        prev = before.get(pid, {})
        out[pid] = {f: v - prev.get(f, 0.0) for f, v in row.items()}
    return out


def _sum_rows(rows: dict) -> dict:
    out = dict.fromkeys(METER_FIELDS, 0.0)
    for row in rows.values():
        for f, v in row.items():
            out[f] += v
    return out


def _model_spans(tracer: Tracer) -> list:
    return [s for s in tracer.spans if s.kind == "model"]


def _base_layers(sample: Sample, used: dict) -> dict:
    """Zeroed layer dict plus the layers every workload measures; *used* is
    the meter's totals over the traced phase, summed over processes."""
    rounds = sample.rounds
    layers = dict.fromkeys(PER_LAYER, 0.0)
    cpu = sample.cpu_own + sample.cpu_kids
    layers.update({
        "round_ms": 1e3 * sample.busy / rounds,
        "models.transition_ms": 1e3 * used["transition"] / rounds,
        "models.log_likelihood_ms": 1e3 * used["log_likelihood"] / rounds,
        "models.calls": used["calls"] / rounds,
        "prng.rand_ms": 1e3 * used["rand"] / rounds,
        "backends.master_cpu_ms": 1e3 * sample.cpu_own / rounds,
        "backends.worker_cpu_pct": 100.0 * sample.cpu_kids / cpu if cpu else 0.0,
    })
    return layers


def _stage_layers(layers: dict, self_s: dict, wall: float) -> None:
    for stage in STAGES:
        layers[f"engine.{stage}_pct"] = 100.0 * self_s.get(stage, 0.0) / wall


def _kernel_layers(layers, kernel_s, calls, params, wall, rounds) -> None:
    """Kernel time shares, and calls, flops and bytes per round; flops and
    bytes are computed from each kernel's cost signature at *params*."""
    for name in KERNELS:
        n = calls.get(name, 0)
        cost = kernel_cost_attrs(name, params) if n else None
        layers[f"kernels.{name}.pct"] = 100.0 * kernel_s.get(name, 0.0) / wall
        layers[f"kernels.{name}.calls"] = n / rounds
        if cost:
            layers[f"kernels.{name}.flops"] = n * cost["flops"] / rounds
            layers[f"kernels.{name}.bytes"] = (
                n * (cost["bytes_read"] + cost["bytes_written"]) / rounds)


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def timings(sample: Sample, open_loop: bool, factor_r) -> dict:
    """The timing metrics of *sample*, with each round's times multiplied by
    its entry of *factor_r* (``1.0`` gives them as measured).

    A closed loop's rate is its steps over the rounds' service time; an open
    loop's is set by its schedule, so it is steps over the phase's wall time.
    CPU is spent while rounds are served, so it takes their time-weighted
    factor.
    """
    busy = float(np.sum(sample.busy_r * factor_r))
    lat_ms = 1e3 * np.repeat(sample.lat_r * factor_r, sample.steps_r)
    cpu = (sample.cpu_own + sample.cpu_kids) * busy / sample.busy
    return {
        "steps_per_s": sample.attempted / (sample.wall if open_loop else busy),
        "step_p50_ms": float(np.percentile(lat_ms, 50)),
        "step_p99_ms": float(np.percentile(lat_ms, 99)),
        "cpu_ms_per_step": 1e3 * cpu / sample.attempted,
    }


def timed_setups(wl: Workload, n: int) -> tuple[list[float], list[float]]:
    """Set *wl* up *n* times, each from a released system and a collected
    heap, so no set-up pays for freeing the one before it. Returns the
    times at the reference speed, and as measured."""
    times, mids = [], []
    for _ in range(n):
        wl.close()
        gc.collect()
        wl.clock.probe()
        t0 = time.perf_counter()
        wl.setup()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        mids.append((t0 + t1) / 2)
    wl.clock.probe()
    return list(np.asarray(times) * wl.clock.factors(mids)), times


def run(name: str, seed: int, seconds: float, trace: bool,
        trace_dir: str = ".perfbench") -> dict:
    """Run workload *name* once; returns the JSON-ready report."""
    tracer = Tracer(enabled=True) if trace else None
    meter = Meter(tracer) if trace else None
    undo_draws = meter_draws(meter) if trace else None
    wl = WORKLOADS[name](seed, meter)
    extra = {}
    try:
        setup_s, setup_raw = timed_setups(wl, SETUP_REPS)
        wl.warm()
        gc.collect()
        if trace:
            base = wl.measure(TRACE_SHARE * seconds)
            sample, layers = wl.traced(TRACE_SHARE * seconds, tracer)
            layers["telemetry.overhead_frac"] = overhead_frac(
                base.s_per_round(), sample.s_per_round())
            attempted = base.attempted + sample.attempted
            failed = base.failed + sample.failed
        else:
            sample = wl.measure(seconds)
            rss = peak_rss_mb()
            attempted, failed = sample.attempted, sample.failed
        wl.finish()
        err = wl.tracking_error()
        gates = wl.gates(err)
    finally:
        wl.close()
        if undo_draws is not None:
            undo_draws()
    if trace:
        metrics = {k: (v, PER_LAYER[k]) for k, v in layers.items()}
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{name}-seed{seed}.trace.json")
        tracer.labels.setdefault(tracer.pid, "benchmark")
        write_chrome_trace(path, tracer.spans, labels=tracer.labels)
        extra["chrome_trace"] = path
    else:
        values = {**timings(sample, wl.open_loop, sample.factor_r),
                  "tracking_error": err, "setup_s": float(np.median(setup_s)),
                  "peak_rss_mb": rss}
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
        raw = {**timings(sample, wl.open_loop, 1.0),
               "setup_s": float(np.median(setup_raw))}
        extra["raw_metrics"] = {k: {"value": v, "unit": END_TO_END[k]}
                                for k, v in raw.items()}
        extra["host_speed"] = {"probe": wl.clock.kind, "probes": len(wl.clock.times),
                         "speed_p50": float(np.median(sample.factor_r)),
                         "speed_min": float(np.min(sample.factor_r)),
                         "speed_max": float(np.max(sample.factor_r))}
        extra["samples"] = {"steps": sample.attempted, "rounds": sample.rounds,
                            "setups": SETUP_REPS, "error_rounds": wl.err_rounds}
        if isinstance(wl, SessionsChurn):
            extra["generator"] = {
                "rate_per_s": wl.rate,
                "late_p50_ms": 1e3 * float(np.percentile(wl.late, 50)),
                "late_p99_ms": 1e3 * float(np.percentile(wl.late, 99))}
    gates_ok = all(ok for ok, _ in gates.values())
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": bool(gates_ok and failed == 0 and wl.failures == 0),
        "attempted": int(attempted), "failed": int(failed),
        "failed_frac": failed / max(1, attempted),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "gates": {k: {"ok": ok, "detail": d} for k, (ok, d) in gates.items()},
        "numpy": np.__version__,
        **extra,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-dir", default=".perfbench")
    args = ap.parse_args(argv)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.trace_dir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
