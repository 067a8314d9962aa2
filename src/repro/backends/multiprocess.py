"""Message-passing execution of the distributed filter across processes.

The paper's design is explicitly distributed-memory friendly: all operations
are local to a sub-filter except the neighbour exchange and the estimate
reduction. This backend demonstrates that property end to end with real OS
processes: sub-filters are partitioned into contiguous blocks, one block per
worker process, and each round runs as

1. master -> workers: measurement + control (*scatter*),
2. workers: sample, weight, sort locally; reply with their sub-filters' top-t
   particles and, for a weighted mean, local-estimate partials (*gather*),
3. master: packs the particles that cross a shard boundary (pairwise
   topologies) or the global top-t (pooled), reduces the global estimate,
4. master -> workers: each block's incoming particles; workers fill their
   intra-shard neighbour slots themselves, pool and resample locally.

Exactly the mpi4py communication pattern (scatter/gather + point-to-point
boundary exchange), built on ``multiprocessing`` pipes so it runs anywhere.

Data plane
----------
How the payloads move is delegated to a :mod:`~repro.backends.transport`
(``transport="pipe"`` pickles everything over the pipes; ``transport="shm"``
keeps the per-round payloads in preallocated double-buffered shared-memory
slabs and ships only tiny headers). Independently of the transport, the
master's gather is a poll-driven event loop over all live workers
(:func:`multiprocessing.connection.wait`): replies are consumed in arrival
order, and for pairwise topologies a block's phase-2 pack is dispatched as
soon as the blocks it reads *from* have reported — overlapping the master's
exchange routing with still-running workers. Pairwise phase 2 always takes
the cut-edge form: only wire slots (sources on another worker, plus masked
placeholders) leave the master; a worker holding no neighbours on other
shards receives an empty pack, and dense exchange is simply a full cut.
The routing table is frozen at round start so results are bit-identical
regardless of arrival order (a block that dies mid-round keeps its ``-inf``
placeholders for the current round — harmless at the resampler — and is
healed out of the table from the next round on).

Fault tolerance
---------------
Because the algorithm is local by construction, a failed worker block is
survivable: the master detects it (deadline on every reply via the event
loop's poll windows, liveness checks on the process, remote tracebacks as
structured ``("error", tb)`` replies), reroutes the exchange topology around
the dead sub-filters with a :class:`~repro.resilience.TopologyHealer`, drops
the dead block's partials from the estimate reduction, and — when
``respawn_dead`` or ``rebalance_dead`` is set — recovers the block with one
routine: the dead sub-filters are cloned from their nearest surviving
topological neighbours (the exchange primitive reused as a recovery
primitive) and delivered with a ``grow`` message, either to a fresh process
in the dead worker's slot (respawn: it starts empty, with fresh transport
slabs) or dealt over the survivors (rebalance). A dead worker's shared
segments are reclaimed (closed *and* unlinked) immediately and counted in
``ResilienceReport.segments_reclaimed``. ``on_failure="raise"`` instead
surfaces a typed :class:`~repro.resilience.WorkerTimeoutError` /
:class:`~repro.resilience.WorkerCrashedError`. A seeded
:class:`~repro.resilience.FaultPlan` can inject crashes, hangs, poisoned
weights and corrupted exchange particles for reproducible chaos testing.

Durability
----------
All master↔worker waiting (gathers, handshakes, the farewell on ``close``)
runs on the shared :class:`~repro.resilience.retry.RetryPolicy` primitives.
With a :class:`~repro.resilience.supervisor.Supervisor` attached, workers
additionally publish out-of-band heartbeats at every stage boundary (shm: a
dedicated slab field; pipe: tiny beat messages), so a worker killed or hung
*inside* a long compute phase is detected by the failure detector before
the gather deadline — escalating retry → heal → respawn →
checkpoint-and-abort. :meth:`MultiprocessDistributedParticleFilter.save_checkpoint`
/ ``load_checkpoint`` write and restore atomic, versioned snapshots
(population, per-sub-filter RNG states, healed topology, resilience counters)
with a golden-trace guarantee: resuming at a step boundary is bit-identical
to the uninterrupted run, including runs whose topology healed or respawned
mid-flight.

See ``docs/robustness.md`` for the failure model and
``docs/architecture.md`` ("Data plane") for the transport protocol.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from multiprocessing.connection import wait as _wait_for_connections

import numpy as np

from repro.allocation import (
    allocation_capacity,
    make_allocation_policy,
    mass_concentration,
    row_logsumexp,
    share_from_logsumexp,
    subfilter_ess,
)
from repro.backends.transport import SlabLayout, make_transport
from repro.backends.worker_rng import FilterStripedRNG
from repro.core.dtypes import resolve_dtype_policy
from repro.core.estimator import max_weight_estimate, weighted_mean_estimate
from repro.core.parameters import DistributedFilterConfig, distributed_config_to_dict
from repro.engine import StepPipeline
from repro.engine.round import Round
from repro.engine.vector_stages import LocalHealStage, ResampleStage, SampleWeightStage, SortStage
from repro.engine.vector_stages import assemble_pool
from repro.kernels.registry import default_registry
from repro.metrics.timing import PhaseTimer
from repro.models.base import StateSpaceModel
from repro.resilience.checkpoint import (
    corrupt_checkpoint_file,
    normalize_config_record,
    read_checkpoint,
    write_checkpoint,
)
from repro.resilience.errors import (
    CheckpointError,
    NoLiveWorkersError,
    WorkerCrashedError,
    WorkerFailure,
    WorkerHeartbeatError,
    WorkerTimeoutError,
)
from repro.resilience.faults import FaultInjectionHook, FaultPlan, corrupt_send_states
from repro.resilience.healing import TopologyHealer
from repro.resilience.membership import Membership
from repro.resilience.monitor import HealMonitorHook, ResilienceReport
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import HeartbeatHook, Supervisor
from repro.telemetry.tracer import Tracer, spans_from_wire, spans_to_wire
from repro.topology import resolve_topology, shard_table_view
from repro.utils.arrays import healthy_round, sanitize_log_weights
from repro.utils.validation import check_positive_int


def _worker_loop(chan, model, config, ids, worker_id,
                 fault_plan=None, tags=None, heartbeat=False):
    """One worker process: owns the global sub-filters listed in ``ids``.

    The round's kernels are not implemented here: the worker builds the
    shared engine stages over its local block and runs the *local-only*
    subset of Algorithm 2 — ``sampling -> heal -> sort`` on a phase-1
    message, ``resample`` on a phase-2 message — while the exchange stage is
    routed through the master's message-passing boundary. Fault injection
    and self-healing accounting attach as stage hooks; a timer hook records
    per-stage seconds under the canonical stage names, shipped back with the
    phase-2 reply. All payload movement goes through the worker *channel*
    (:mod:`repro.backends.transport`), which presents the same logical
    messages whether the bytes travelled by pipe pickle or shared slab.

    Any exception inside a message handler is reported back to the master
    as a structured ``("error", traceback_str)`` reply instead of dying
    silently (which would leave the master blocked on ``recv``).

    Randomness belongs to the sub-filter: the batched draws are served
    through a :class:`FilterStripedRNG` — one stream per owned sub-filter,
    at its generation tag in ``tags`` (aligned with the ascending ``ids``;
    all 0 when omitted, and a respawn bumps them so a replacement never
    replays its predecessor's draws) — so every draw is a function of the
    *sub-filter*, not the worker, and results are invariant to how
    sub-filters shard over processes.

    Message kinds: ``init``, ``phase1``, ``phase2`` (pooled or no-exchange
    rounds), ``phase2c`` (pairwise rounds: the master ships only the wire
    slots of a cut-edge pack; the worker fills its intra-shard slots from
    the particles it sent in phase 1, corrupted copy included), ``shard``
    (installs the :class:`~repro.topology.ShardView` saying which slot is
    which; one-way), ``grow`` (merges donor-cloned sub-filters — the one
    recovery delivery, for a respawned worker that starts with none and for
    a rebalanced survivor alike), ``snapshot``/``restore`` (population, full
    RNG state, healing counters and widths: checkpoints, donor cloning and
    ``gather_population``) and ``stop``.

    With ``heartbeat=True`` a :class:`HeartbeatHook` leads the hook list,
    publishing liveness at every stage boundary *from the compute thread* —
    deliberately not from a side thread, so a hang (injected or real) stops
    the beats exactly like a crash does.
    """
    ids = np.sort(np.asarray(ids, dtype=np.int64))
    inner = FilterStripedRNG(config.rng, config.seed, ids, tags=tags)
    tracer = Tracer()
    heal_hook = HealMonitorHook(tracer=tracer)
    hooks = [FaultInjectionHook(fault_plan, worker_id, tracer=tracer), heal_hook]
    if heartbeat:
        # First in the list: the stage-entry beat lands before fault
        # injection can kill/hang the stage, mirroring a real worker that
        # was demonstrably alive when the stage began.
        hooks.insert(0, HeartbeatHook(chan, fault_plan, worker_id))
    # The master decides allocation from its own metrics, so the worker
    # captures none; its round splits at the exchange into two pipelines.
    rnd = Round(model, config, inner, stages=None, tracer=tracer, hooks=hooks,
                alloc_metrics=False)
    timer, rng, state, ctx, kernel_hook = (
        rnd.timer, rnd.rng, rnd.state, rnd.ctx, rnd.kernel_hook)
    dtype, wdt = rnd.dtype, rnd.dtype_policy.weight
    F = int(ids.size)
    shard_view = None
    sent = None  # this round's (states, logw) top-t, as shipped in phase 1
    m_cap = allocation_capacity(config)
    adaptive = m_cap != config.n_particles
    local_pipeline = StepPipeline(
        [SampleWeightStage(), LocalHealStage(), SortStage(force=True)], hooks=rnd.hooks
    )
    resample_pipeline = StepPipeline([ResampleStage()], hooks=rnd.hooks)
    reported_errors = 0

    def _finish_phase2(recv_states, recv_logw):
        """Pool incoming particles, resample, reply with round telemetry."""
        nonlocal reported_errors
        if recv_states is not None and recv_states.shape[1] > 0:
            with tracer.span("exchange", kernel="assemble_pool"):
                state.pooled_states, state.pooled_logw = assemble_pool(
                    state, recv_states, recv_logw)
                # Corrupted incoming particles must never be selected:
                # sanitize the pool's received slice in place.
                rs, rw = state.pooled_states[:, m_cap:], state.pooled_logw[:, m_cap:]
                if not healthy_round(rw, rs):
                    sanitize_log_weights(rw, rs)
        else:
            state.pooled_states, state.pooled_logw = state.states, state.log_weights
        resample_pipeline.run_stages(ctx, state)
        kernel_seconds = dict(kernel_hook.kernel_seconds)
        kernel_hook.kernel_seconds.clear()
        kernel_hook.kernel_calls.clear()
        # Telemetry piggybacks on the phase-2 reply: this round's spans
        # (empty unless the master requested tracing in the phase-1
        # header), counter deltas, suppressed hook-error count, and this
        # process's clock *now* — the master uses receipt time minus this
        # clock to align the timelines.
        spans, counters = tracer.drain()
        errors = (local_pipeline.telemetry_errors
                  + resample_pipeline.telemetry_errors)
        telemetry = {
            "pid": tracer.pid,
            "clock": tracer.clock(),
            "spans": spans_to_wire(spans),
            "counters": counters,
            "errors": errors - reported_errors,
        }
        reported_errors = errors
        chan.reply_phase2(dict(timer.seconds), kernel_seconds, telemetry)

    try:
        while True:
            msg = chan.recv()
            if heartbeat:
                chan.beat(0)
            kind = msg[0]
            try:
                if kind == "init":
                    # One (m, d) prior per sub-filter from its own stream —
                    # the same draw under any partition, which is what shard
                    # parity pins.
                    rnd.initialize(rows=F, per_filter=True)
                    chan.send(("ok",))
                elif kind == "phase1":
                    _, z, u, k, t, trace, new_widths = msg
                    tracer.enabled = bool(trace)
                    if new_widths is not None and state.widths is not None:
                        w_arr = np.asarray(new_widths, dtype=np.int64)
                        if not np.array_equal(w_arr, state.widths):
                            # Deterministic resize before sampling (no RNG,
                            # no pool at round start), so checkpoint/resume
                            # stays bit-exact across a width change.
                            ctx.invoke_kernel(state, "migrate_resize",
                                              state.states, state.log_weights,
                                              state.widths, w_arr)
                            state.widths = w_arr.copy()
                    state.measurement, state.control, state.k = z, u, k
                    timer.reset()
                    local_pipeline.run_stages(ctx, state)
                    states, logw = state.states, state.log_weights
                    tp = max(t, 1)
                    if fault_plan is None:
                        # The channel copies on send; no private copy needed.
                        send_states = states[:, :tp]
                    else:
                        # Corruption must hit only the *sent* copy, never the
                        # worker's own particles.
                        send_states = states[:, :tp].copy()
                        corrupt_send_states(fault_plan, worker_id, k, send_states)
                    # Per-sub-filter estimate partials, keyed downstream by
                    # global id: [Σ_j w·x (d) | Σ_j w | row shift]. Row-local
                    # shifts (not a block max) make every row's value
                    # independent of which other rows share the worker, so
                    # the master's reduction is shard-invariant. einsum
                    # accumulates each row sequentially over m — the same
                    # bits under any partition. Only the weighted mean reads
                    # them; the max-weight estimate needs just column 0.
                    partial = None
                    if config.estimator == "weighted_mean":
                        with tracer.span("estimate", kernel="estimate_partials"):
                            d_ = model.state_dim
                            shift = logw.max(axis=1)
                            safe = np.where(np.isfinite(shift), shift, 0.0)
                            w = state.scratch("partial.w", logw.shape, np.float64)
                            np.subtract(logw, safe[:, None], out=w)
                            np.exp(w, out=w)
                            partial = np.empty((F, d_ + 2), dtype=np.float64)
                            partial[:, :d_] = np.einsum("fm,fmd->fd", w, states)
                            partial[:, d_] = w.sum(axis=1)
                            partial[:, d_ + 1] = shift
                    alloc = None
                    if adaptive:
                        # Pre-resample allocation metrics: per-sub-filter ESS
                        # plus the weight-mass logsumexp, which is globally
                        # comparable — the master concatenates all blocks'
                        # rows and softmaxes once.
                        alloc = (subfilter_ess(logw), row_logsumexp(logw))
                    sent = (send_states, logw[:, :tp])
                    chan.reply_phase1(k, send_states, sent[1], states[:, 0],
                                      logw[:, 0], partial, dict(heal_hook.last_round),
                                      alloc)
                elif kind == "phase2":
                    _, recv_states, recv_logw = msg
                    _finish_phase2(recv_states, recv_logw)
                elif kind == "shard":
                    # One-way push of this worker's ShardView payload (slot
                    # coordinates of local vs. wire exchange sources). No
                    # reply: the framed transport preserves ordering, so the
                    # next phase2c is guaranteed to see it installed.
                    shard_view = msg[1]
                elif kind == "phase2c":
                    # Cut-edge phase 2: the master shipped only the wire
                    # slots; intra-shard slots are filled from the particles
                    # this worker sent in phase 1 (the copy a FaultPlan
                    # corrupts), so the receive table is exactly the one a
                    # dense route over the gathered tops would build.
                    _, t2, packed_s, packed_w = msg
                    if shard_view is None:
                        raise RuntimeError("phase2c before any shard view")
                    _vids, D, li, lj, lsrc, wi, wj, _wvalid = shard_view
                    rs = state.scratch("exch.recv_states",
                                       (F, D, t2, model.state_dim), dtype)
                    rw = state.scratch("exch.recv_logw", (F, D, t2), wdt)
                    if li.size:
                        rs[li, lj] = sent[0][lsrc, :t2]
                        rw[li, lj] = sent[1][lsrc, :t2]
                    if wi.size:
                        rs[wi, wj] = packed_s
                        rw[wi, wj] = packed_w
                    _finish_phase2(rs.reshape(F, D * t2, model.state_dim),
                                   rw.reshape(F, D * t2))
                elif kind == "grow":
                    # Recovery: merge donor-cloned sub-filters (uniform
                    # weights) into the local population — a respawned
                    # worker starts with none — keeping global-id-ascending
                    # row order, and give each grown id a fresh
                    # generation-tagged RNG stream.
                    _, new_ids, g_states, g_logw, g_widths, g_tags = msg
                    new_ids = np.asarray(new_ids, dtype=np.int64)
                    merged = np.concatenate([ids, new_ids])
                    order = np.argsort(merged)
                    n_new = int(new_ids.size)
                    ns = np.empty((F + n_new, m_cap, model.state_dim), dtype=dtype)
                    lw = np.empty((F + n_new, m_cap), dtype=wdt)
                    if F:
                        ns[:F] = state.states
                        lw[:F] = state.log_weights
                    ns[F:] = np.ascontiguousarray(g_states, dtype=dtype).reshape(
                        n_new, m_cap, model.state_dim)
                    lw[F:] = np.asarray(g_logw, dtype=wdt).reshape(n_new, m_cap)
                    new_widths = None
                    if g_widths is not None:
                        # An empty worker has no widths yet: the clones'
                        # widths are the whole vector.
                        own = state.widths if F else np.empty(0, dtype=np.int64)
                        new_widths = np.concatenate(
                            [own, np.asarray(g_widths, dtype=np.int64)])[order]
                    k_saved = state.k
                    heal_saved = dict(state.heal_counters)
                    state.reset(np.ascontiguousarray(ns[order]),
                                np.ascontiguousarray(lw[order]),
                                widths=new_widths)
                    state.k, state.heal_counters = k_saved, heal_saved
                    ids = merged[order]
                    F = int(ids.size)
                    inner.adopt(new_ids, [int(x) for x in g_tags])
                    shard_view = None  # stale coordinates after the merge
                    chan.send(("ok",))
                elif kind == "snapshot":
                    # Population + the exact RNG state + healing counters
                    # (+ live widths under adaptive allocation). Tagged so a
                    # gather that had to abort a round can tell snapshots
                    # from stale round replies.
                    chan.send(("snap", state.states, state.log_weights,
                               rng.state_dict(),
                               {k: int(v) for k, v in state.heal_counters.items()},
                               None if state.widths is None else state.widths.copy()))
                elif kind == "restore":
                    _, new_states, new_logw, k, rng_state, heal_counters, widths = msg
                    state.reset(
                        np.ascontiguousarray(new_states, dtype=dtype).reshape(
                            F, m_cap, model.state_dim),
                        np.asarray(new_logw, dtype=wdt).reshape(F, m_cap).copy(),
                        widths=widths)
                    state.k = int(k)
                    # Merge over reset()'s defaults: an elastic restore sends
                    # no counters (they are shard-local aggregates) and must
                    # still leave every counter key present.
                    state.heal_counters.update(
                        {key: int(v) for key, v in heal_counters.items()})
                    rng.load_state_dict(rng_state)
                    chan.send(("ok",))
                elif kind == "stop":
                    chan.send(("bye",))
                    return
                else:  # pragma: no cover - protocol guard
                    raise RuntimeError(f"unknown message {kind!r}")
            except Exception:  # noqa: BLE001 - forwarded to the master
                chan.send(("error", traceback.format_exc()))
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        chan.close()


class MultiprocessDistributedParticleFilter:
    """The distributed filter executed across worker processes.

    Statistically equivalent to :class:`DistributedParticleFilter` (different
    RNG stream layout), with genuinely distributed state: the master never
    holds the particle population, only boundary particles and estimates —
    the same data-movement contract as a cluster implementation.

    Parameters
    ----------
    transport:
        the data plane moving per-round payloads between master and workers:
        ``"pipe"`` (pickle over pipes, the reference) or ``"shm"``
        (preallocated double-buffered shared-memory slabs; pipes carry only
        control headers). Filtering results are bit-identical across
        transports.
    recv_timeout:
        deadline [s] for every worker reply, enforced with poll windows in
        the gather event loop; ``None`` waits forever (liveness is still
        checked every second, so a *crashed* worker is always detected).
    max_retries:
        number of poll windows the deadline is split into (exponential
        backoff); each expired window counts as a retry before the final
        :class:`WorkerTimeoutError`.
    on_failure:
        ``"raise"`` — surface the typed failure to the caller;
        ``"heal"`` — declare the block dead, reroute the exchange topology
        around its sub-filters, drop its partials from the estimate
        reduction, and keep filtering with the survivors.
    respawn_dead:
        with ``on_failure="heal"``, respawn dead blocks at the end of the
        round: a fresh process (with fresh transport slabs) grows the dead
        block from particles cloned off the nearest live topological
        neighbours.
    rebalance_dead:
        with ``on_failure="heal"`` and an elastic transport, deal a dead
        block's sub-filters over the survivors instead, each growing its
        share from the same donor clones. Exclusive with ``respawn_dead``.
    fault_plan:
        optional :class:`~repro.resilience.FaultPlan` injected into every
        worker for reproducible chaos testing.
    heal_bridge:
        bridge a dead sub-filter's neighbours into a cycle (keeps a ring a
        ring); ``False`` just drops the dead node's edges.
    supervisor:
        optional :class:`~repro.resilience.supervisor.Supervisor`. When set,
        workers publish stage-boundary heartbeats and the gather loop runs
        the supervisor's failure detector while it waits, so a kill/hang
        *during* a compute phase is detected before the gather deadline
        (as a :class:`WorkerHeartbeatError`). When ``None`` (default) no
        heartbeat work happens anywhere — neither in the workers nor in the
        gather loop — keeping the undisturbed hot path unchanged.
    """

    def __init__(self, model: StateSpaceModel, config: DistributedFilterConfig,
                 n_workers: int = 2, *, transport: str = "pipe",
                 recv_timeout: float | None = 30.0,
                 max_retries: int = 3, on_failure: str = "raise",
                 respawn_dead: bool = False, rebalance_dead: bool = False,
                 fault_plan: FaultPlan | None = None,
                 heal_bridge: bool = True, supervisor: Supervisor | None = None):
        check_positive_int(n_workers, "n_workers")
        if config.n_filters % n_workers:
            raise ValueError(f"n_filters ({config.n_filters}) must divide over {n_workers} workers")
        if on_failure not in ("raise", "heal"):
            raise ValueError(f"on_failure must be 'raise' or 'heal', got {on_failure!r}")
        self.model = model
        self.config = config
        self.n_workers = n_workers
        self.transport = make_transport(transport)
        if rebalance_dead:
            if respawn_dead:
                raise ValueError(
                    "respawn_dead and rebalance_dead are exclusive recovery "
                    "strategies; pick one")
            if on_failure != "heal":
                raise ValueError("rebalance_dead requires on_failure='heal'")
            if not self.transport.caps.elastic:
                raise ValueError(
                    f"rebalance_dead needs an elastic (framed) transport, "
                    f"not {self.transport.name!r}")
        self.rebalance_dead = bool(rebalance_dead)
        #: the waiting discipline shared by every master↔worker path.
        self.retry = RetryPolicy(timeout=recv_timeout, max_retries=max_retries)
        self.recv_timeout = self.retry.timeout
        self.max_retries = self.retry.max_retries
        self._close_retry = RetryPolicy(timeout=1.0, max_retries=1)
        self.supervisor = supervisor
        self.on_failure = on_failure
        self.respawn_dead = bool(respawn_dead)
        self.fault_plan = fault_plan
        self.topology = resolve_topology(config.topology, config.n_filters)
        self._table = self.topology.neighbor_table()
        self._mask = self._table >= 0
        self.heal_bridge = bool(heal_bridge)
        self._healer = TopologyHealer(self.topology, bridge=self.heal_bridge)
        #: width-aware allocation: the master owns the policy and the global
        #: width vector; workers only ever see their own block's widths.
        self.alloc_policy = make_allocation_policy(config)
        self._capacity = allocation_capacity(config)
        self._widths: np.ndarray | None = None
        self.alloc_counters = {"particles_migrated": 0, "width_changes": 0}
        self.report = ResilienceReport()
        self.timer = PhaseTimer()
        self.kernel_seconds: dict[str, float] = {}
        #: master-side telemetry collector; worker spans are merged into it
        #: clock-aligned at phase-2 receipt. Disabled (near-zero cost) until
        #: an exporter is attached or ``tracer.enabled`` is set.
        self.tracer = Tracer()
        self.tracer.labels[self.tracer.pid] = "master"
        #: hook/exporter exceptions suppressed across master AND workers.
        self.telemetry_errors = 0
        #: payload sends that left the shm slab for the inline pipe path
        #: (oversized arrays, healed-wider phase-2 widths). Always 0 for the
        #: pipe transport, whose inline form is the native path.
        self.transport_fallbacks = 0
        self.k = 0
        self._procs: list = []
        self._chans: list = []
        #: group membership: worker statuses + the filter→worker shard
        #: assignment, with an epoch that invalidates cached shard views.
        self.membership = Membership(config.n_filters, n_workers)
        #: per-sub-filter RNG generation tags: bumped when recovery re-seeds
        #: a sub-filter, so a replacement stream never replays the original.
        self._filter_tags = np.zeros(config.n_filters, dtype=np.int64)
        self._block = config.n_filters // n_workers
        #: cached per-worker ShardViews + the (membership, topology) epoch
        #: they were pushed at; a stale view is recomputed and re-pushed.
        self._shard_views: dict[int, object] = {}
        self._shard_sync: dict[int, tuple] = {}
        self._topo_epoch = 0
        #: cut-edge payload bytes/particles packed for pairwise phase 2.
        self.shard_cut_bytes = 0
        self.shard_cut_particles = 0
        #: cumulative transport byte counters (transports that meter them).
        self.transport_bytes = {"sent": 0, "received": 0}
        self._started = False
        self._scratch_pool: dict[str, np.ndarray] = {}
        self.last_estimate: np.ndarray | None = None
        # Slab capacities for the shared-memory transport, sized to the
        # unhealed topology: a pooled round's (B, t) rows, or the widest
        # block's cut-edge pack of n_wire * t particles. A healed topology
        # whose blocks gain wire slots (torus bridging) transparently falls
        # back to the inline pipe path for the affected rounds, so this is a
        # fast path, not a limit.
        t_cap = max(config.n_exchange, 1)
        if self.topology.pooled:
            recv_cap = t_cap
        else:
            owner = self.membership.owner_of()
            n_wire = max(shard_table_view(w, self._owned(w), owner, self._table,
                                          self._mask).n_wire_slots
                         for w in range(n_workers))
            recv_cap = -(-n_wire * t_cap // self._block)
        # Slab field sizes derive from the resolved dtype policy: the wire
        # format is exactly the in-memory format, so a float32 policy halves
        # the per-round particle/weight payload end to end.
        self.dtype_policy = resolve_dtype_policy(config.dtype_policy, config.dtype)
        self._layout = SlabLayout(
            n_block=self._block, n_particles=config.n_particles,
            state_dim=model.state_dim, t_cap=t_cap, recv_cap=max(recv_cap, 1),
            meas_cap=max(int(getattr(model, "measurement_dim", 1)), 1),
            ctrl_cap=max(int(getattr(model, "control_dim", 0)), 1),
            dtype=self.dtype_policy.state,
            weight_dtype=self.dtype_policy.weight,
        )

    # -- process management -----------------------------------------------
    def _owned(self, w: int) -> np.ndarray:
        """Global sub-filter ids worker *w* currently owns, ascending."""
        return self.membership.owned(w)

    def _live_workers(self) -> list[int]:
        return self.membership.live_workers()

    def _spawn_worker(self, w: int, ids=None) -> None:
        """Start worker *w* owning *ids* (default: its current shard)."""
        ctx = mp.get_context("fork")
        master_chan, worker_chan = self.transport.channel_pair(ctx, self._layout)
        ids = self._owned(w).copy() if ids is None else ids
        p = ctx.Process(
            target=_worker_loop,
            args=(worker_chan, self.model, self.config, ids, w, self.fault_plan,
                  self._filter_tags[ids].tolist(),
                  self.supervisor is not None),
            daemon=True,
        )
        p.start()
        master_chan.after_start()  # drop the worker-side ends: EOF = worker gone
        self._procs[w] = p
        self._chans[w] = master_chan
        self.membership.join(w, self.k)
        self._shard_sync.pop(w, None)  # a fresh process holds no view

    def _start(self, assignment=None) -> None:
        self._procs = [None] * self.n_workers
        self._chans = [None] * self.n_workers
        self.membership = Membership(self.config.n_filters, self.n_workers,
                                     assignment=assignment)
        self._shard_views, self._shard_sync = {}, {}
        for w in range(self.n_workers):
            self._spawn_worker(w)
        self._started = True

    def close(self) -> None:
        """Stop the worker processes and release transport resources.

        Robust against workers that already crashed or hung: the farewell
        handshake is bounded by ``poll``, and any process still alive after
        a short join is terminated — leaked workers (and leaked shared
        segments) never outlive the run.
        """
        if not self._started:
            return
        for chan, p in zip(self._chans, self._procs):
            if chan is None:
                continue
            try:
                if p is not None and p.is_alive():
                    chan.request(("stop",))
                    # Same bounded-wait discipline as the gathers; drains any
                    # heartbeat messages queued ahead of the farewell.
                    dl = self._close_retry.deadline(time.perf_counter())
                    while True:
                        if not chan.conn.poll(dl.remaining(time.perf_counter())):
                            if dl.expire(time.perf_counter()) != "retry":
                                break
                            continue
                        msg = chan.conn.recv()
                        if not (isinstance(msg, tuple) and msg
                                and isinstance(msg[0], str) and msg[0] == "beat"):
                            break
            except (BrokenPipeError, EOFError, OSError):
                pass
        for p in self._procs:
            if p is None:
                continue
            p.join(timeout=2)
            if p.is_alive():
                p.terminate()
                p.join(timeout=2)
        # Unlink shared segments only after the workers are gone so a live
        # worker never loses its mapping mid-write.
        for chan in self._chans:
            if chan is not None:
                chan.close()
        self._procs, self._chans = [], []
        for w in range(self.n_workers):
            if self.membership.is_live(w):
                self.membership.leave(w, self.k, detail="close")
        self._started = False

    def __enter__(self):
        self.initialize()
        return self

    def __exit__(self, *exc):
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- guarded messaging -------------------------------------------------
    def _send(self, w: int, msg) -> None:
        try:
            self._chans[w].request(msg)
        except (BrokenPipeError, OSError) as e:
            raise WorkerCrashedError(
                f"worker {w} pipe failed on send: {e}", worker_id=w, step=self.k
            ) from e

    def _request(self, w: int, msg, what: str, accept=None):
        """Send *msg* to worker *w* and wait for its one reply, with the
        deadline/liveness/backoff semantics of :meth:`_gather`."""
        self._send(w, msg)
        return self._gather([w], what=what, handle_failures=False,
                            accept=accept)[w]

    def _gather(self, workers, what: str, handler=None, handle_failures=True,
                accept=None):
        """Poll-driven gather: consume replies from *workers* in arrival order.

        The reference implementation received replies in worker order, so a
        slow worker 0 head-of-line-blocked the master even when workers 1..n
        had long replied. Here a single :func:`multiprocessing.connection.wait`
        loop drains whichever connections are ready (ties broken by worker id
        for determinism) and invokes *handler(w, msg)* on each arrival —
        which is what lets the master overlap exchange routing with
        still-running workers.

        Waiting runs on the shared :class:`RetryPolicy` deadlines: each
        worker gets ``recv_timeout`` split into ``max_retries``
        exponentially growing poll windows (``None`` polls forever in 1 s
        windows); each expired window bumps ``report.retries``, the last one
        bumps ``report.timeouts`` and raises/heals a
        :class:`WorkerTimeoutError`. A readable connection that EOFs, a
        dead process, or a structured ``("error", tb)`` reply becomes a
        :class:`WorkerCrashedError`. With a supervisor attached, the loop
        additionally samples every pending worker's heartbeat counter at
        the supervisor's check interval; a worker whose beats stall for
        ``max_missed`` consecutive windows fails *mid-window* with a
        :class:`WorkerHeartbeatError` (or ``WorkerCrashedError`` if the
        process is found dead) — before the gather deadline fires.

        With ``handle_failures`` a failure is routed through
        :meth:`_handle_failure` (which re-raises under
        ``on_failure="raise"``); otherwise it propagates to the caller.
        ``accept`` optionally filters replies: messages it rejects (stale
        round replies drained during checkpoint-on-abort) are discarded and
        the wait continues. ``("beat", ...)`` messages are absorbed into
        the channel's heartbeat counter and never complete a wait.

        Returns ``{worker_id: reply}`` for the workers that replied.
        """
        now = time.perf_counter()
        deadlines = {w: self.retry.deadline(now) for w in workers}
        pending = set(workers)
        results: dict[int, object] = {}
        sup = self.supervisor
        if sup is not None:
            for w in workers:
                sup.begin_wait(w, self._chans[w].heartbeat(), now)

        def fail(w: int, exc: WorkerFailure) -> None:
            pending.discard(w)
            if handle_failures:
                self._handle_failure(w, exc)
            else:
                raise exc

        while pending:
            conn_of = {self._chans[w].conn: w for w in pending}
            now = time.perf_counter()
            timeout = min(deadlines[w].remaining(now) for w in pending)
            if sup is not None:
                timeout = min(timeout, sup.check_interval)
            ready = _wait_for_connections(list(conn_of), timeout)
            for conn in sorted(ready, key=conn_of.__getitem__):
                w = conn_of[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError) as e:
                    fail(w, WorkerCrashedError(
                        f"worker {w} pipe failed during {what}: {e}",
                        worker_id=w, step=self.k))
                    continue
                if isinstance(msg, tuple) and msg and isinstance(msg[0], str) \
                        and msg[0] == "beat":
                    self._chans[w].note_beat(msg)
                    continue
                if isinstance(msg, tuple) and msg and isinstance(msg[0], str) \
                        and msg[0] == "error":
                    fail(w, WorkerCrashedError(
                        f"worker {w} raised remotely during {what}:\n{msg[1]}",
                        worker_id=w, step=self.k, remote_traceback=msg[1]))
                    continue
                if accept is not None and not accept(msg):
                    continue  # stale reply from an interrupted round
                if sup is not None:
                    sup.note_reply(w, time.perf_counter())
                pending.discard(w)
                results[w] = msg
                if handler is not None:
                    handler(w, msg)
            # Bookkeeping runs every iteration (not only on an empty poll):
            # on the pipe transport, beats from healthy workers keep waking
            # the wait, and the stalled worker must still be noticed.
            now = time.perf_counter()
            for w in sorted(pending):
                proc = self._procs[w]
                if sup is not None:
                    verdict = sup.observe(w, self._chans[w].heartbeat(), now, self.k)
                    if verdict != "ok":
                        self.report.heartbeat_misses += 1
                        self.tracer.count("heartbeat.miss")
                    if verdict == "dead":
                        self.report.heartbeat_failures += 1
                        self.tracer.count("heartbeat.dead")
                        if proc is not None and not proc.is_alive():
                            fail(w, WorkerCrashedError(
                                f"worker {w} process exited (code {proc.exitcode}) "
                                f"during {what} (heartbeat lost)",
                                worker_id=w, step=self.k))
                        else:
                            fail(w, WorkerHeartbeatError(
                                f"worker {w} stopped heartbeating during {what} "
                                f"({sup.max_missed} windows of "
                                f"{sup.beat_timeout:g}s missed)",
                                worker_id=w, step=self.k))
                        continue
                if not deadlines[w].due(now):
                    continue
                if proc is not None and not proc.is_alive():
                    fail(w, WorkerCrashedError(
                        f"worker {w} process exited (code {proc.exitcode}) during {what}",
                        worker_id=w, step=self.k))
                    continue
                expiry = deadlines[w].expire(now)
                if expiry == "timeout":
                    self.report.timeouts += 1
                    self.tracer.count("retry.timeout")
                    fail(w, WorkerTimeoutError(
                        f"worker {w} did not reply within {self.recv_timeout}s during {what}",
                        worker_id=w, step=self.k))
                elif expiry == "retry":
                    self.report.retries += 1
                    self.tracer.count("retry.window_expired")
        return results

    # -- failure handling ----------------------------------------------------
    def _handle_failure(self, w: int, exc: WorkerFailure) -> None:
        """Record a failure, then heal or checkpoint-and-raise per ``on_failure``."""
        if isinstance(exc, WorkerHeartbeatError):
            kind = "heartbeat"
        elif isinstance(exc, WorkerTimeoutError):
            kind = "timeout"
        elif getattr(exc, "remote_traceback", None) is not None:
            kind = "error"
        else:
            kind = "crash"
        self.report.record_failure(self.k, w, kind, detail=str(exc).splitlines()[0],
                                   filters=[int(f) for f in self._owned(w)])
        if self.on_failure == "raise":
            sup = self.supervisor
            if sup is not None and sup.checkpoint_on_abort:
                self._checkpoint_and_abort(w)
            raise exc
        self.report.record_escalation("heal")
        self.tracer.count("escalation.heal")
        if self.supervisor is not None:
            self.supervisor.escalate("heal", w, self.k, detail=kind)
        self._declare_dead(w)

    def _checkpoint_and_abort(self, w: int) -> None:
        """Final ladder rung: retire the failed worker, save the survivors.

        Best-effort by design — the *original* failure is the one the caller
        must see, so a checkpoint that cannot be taken (no live workers, a
        second failure mid-save) is swallowed after being counted. The saved
        checkpoint is marked ``boundary: False``: survivors were interrupted
        mid-round, so resuming replays the aborted step (deterministically,
        but not bit-identical to a run that never aborted).
        """
        sup = self.supervisor
        self._declare_dead(w)
        sup.escalate("abort", w, self.k,
                     detail=f"checkpoint to {sup.checkpoint_on_abort}")
        self.report.record_escalation("abort")
        self.tracer.count("escalation.abort")
        try:
            self.save_checkpoint(sup.checkpoint_on_abort, boundary=False)
        except Exception:
            self.tracer.count("checkpoint.abort_save_failed")

    def _declare_dead(self, w: int, count_reclaim: bool = True) -> None:
        """Terminate worker *w*, reclaim its slabs, heal around its block.

        ``count_reclaim=False`` is the checkpoint-restore path: blocks that
        were already dead at save time are retired again in the fresh
        process tree, but their reclaims were counted before the save — the
        restored report must not count them twice.
        """
        p = self._procs[w]
        if p is not None and p.is_alive():
            p.terminate()
            p.join(timeout=2)
        chan = self._chans[w]
        if chan is not None:
            # The dead worker can never run its own close: the master closes
            # AND unlinks its shared segments here so nothing leaks (and the
            # resource_tracker stays clean).
            reclaimed = chan.close()
            if count_reclaim:
                self.report.segments_reclaimed += reclaimed
        self._chans[w] = None
        if self.membership.is_live(w):
            self.membership.evict(w, self.k, detail="declared dead")
        self._healer.mark_dead(self._owned(w))
        self._topo_epoch += 1

    @property
    def dead_workers(self) -> tuple[int, ...]:
        """Currently-dead worker shards (healed around, not yet recovered)."""
        if not self._started:
            return ()
        return tuple(w for w in range(self.n_workers)
                     if not self.membership.is_live(w))

    def diagnostics(self) -> dict:
        """JSON-ready resilience snapshot: failures, heals, liveness."""
        out = self.report.summary()
        out["live_workers"] = list(self._live_workers()) if self._started else []
        out["dead_filters"] = list(self._healer.dead)
        out["membership"] = self.membership.summary()
        out["shard"] = {
            "cut_bytes": int(self.shard_cut_bytes),
            "cut_particles": int(self.shard_cut_particles),
        }
        out["transport_bytes"] = dict(self.transport_bytes)
        return out

    # -- filter protocol ------------------------------------------------------
    def initialize(self) -> None:
        cfg = self.config
        self._widths = None
        if self._capacity != cfg.n_particles:
            self._widths = np.full(cfg.n_filters, cfg.n_particles, dtype=np.int64)
        self.alloc_counters = {"particles_migrated": 0, "width_changes": 0}
        if not self._started:
            self._start()
        for w in self._live_workers():
            try:
                self._send(w, ("init",))
            except WorkerFailure as e:
                self._handle_failure(w, e)
        self._gather(self._live_workers(), what="init")
        self.k = 0

    def _scratch(self, key: str, shape: tuple, dtype) -> np.ndarray:
        """A reusable master-side buffer (allocation-free steady state)."""
        arr = self._scratch_pool.get(key)
        if arr is None or arr.shape != shape or arr.dtype != np.dtype(dtype):
            arr = np.empty(shape, dtype=np.dtype(dtype))
            self._scratch_pool[key] = arr
        return arr

    def _count_fallbacks(self, n: int) -> None:
        if n:
            self.transport_fallbacks += n
            self.tracer.count("transport_fallbacks", n)

    def step(self, measurement: np.ndarray, control: np.ndarray | None = None) -> np.ndarray:
        if not self._started:
            self.initialize()
        cfg = self.config
        t = cfg.n_exchange
        if not self._live_workers():
            raise NoLiveWorkersError("all worker blocks are dead", step=self.k)
        # Snapshot the tracing flag once per round: workers are told in the
        # phase-1 header whether to record spans, so master and workers agree
        # for the whole round even if the caller flips the tracer mid-step.
        tracing = self.tracer.enabled
        step_k = self.k
        step_t0 = self.tracer.clock() if tracing else 0.0

        # Assembly buffers for the full population boundary; dead blocks hold
        # -inf weight placeholders so shapes stay (F, ...) and nothing
        # selects them. Reused across rounds.
        F, d = cfg.n_filters, self.model.state_dim
        tp = max(t, 1)
        send_states = self._scratch("send_states", (F, tp, d), self.dtype_policy.state)
        send_logw = self._scratch("send_logw", (F, tp), self.dtype_policy.weight)
        best_states = self._scratch("best_states", (F, d), np.float64)
        best_logw = self._scratch("best_logw", (F,), np.float64)
        send_states[...] = 0.0
        best_states[...] = 0.0
        send_logw.fill(-np.inf)
        best_logw.fill(-np.inf)
        # Per-sub-filter estimate partials (weighted mean only), assembled by
        # global id so the reduction sees the same (F, d+2) array however the
        # sub-filters shard over workers. Dead rows stay [0 | 0 | -inf].
        partial = None
        if cfg.estimator == "weighted_mean":
            partial = self._scratch("partials", (F, d + 2), np.float64)
            partial[:, : d + 1] = 0.0
            partial[:, d + 1] = -np.inf

        # The routing table is FROZEN at round start: every block of this
        # round is routed with the same table no matter when its reply
        # arrives, so the overlap below cannot perturb results. A block that
        # dies mid-round simply leaves its -inf placeholders in the send
        # buffers (never resampled); the healer reroutes from the next round.
        table, mask = self._healer.neighbor_table()
        exchange_on = t > 0 and table.shape[1] > 0
        pooled = self.topology.pooled

        # Source-block dependencies for eager (overlapped) phase-2 dispatch:
        # block w can be routed once every block its table rows read from has
        # reported. Pooled topologies need the global pool -> gather barrier.
        owner = self.membership.owner_of()
        # Shard views are cached per (membership, topology) epoch; a worker
        # that dies mid-round bumps the epoch, but this round still routes
        # with the table frozen above — so views are keyed on *its* epoch.
        route = ((self.membership.epoch, self._topo_epoch), owner, table, mask)
        deps: dict[int, set[int]] | None
        if not exchange_on:
            deps = {w: set() for w in range(self.n_workers)}
        elif pooled:
            deps = None
        else:
            deps = {}
            for w in range(self.n_workers):
                ids = self._owned(w)
                src = table[ids][mask[ids]]
                deps[w] = set(owner[src].tolist()) - {-1}

        arrived: set[int] = set()
        dispatched: set[int] = set()
        p2_sent: list[int] = []
        pooled_route: tuple[np.ndarray, np.ndarray] | None = None

        # Adaptive allocation: global metric assembly for the end-of-round
        # decision. Dead blocks keep ESS 0 / -inf mass (zero influence).
        adaptive = self._widths is not None
        if adaptive:
            alloc_ess = self._scratch("alloc_ess", (F,), np.float64)
            alloc_lse = self._scratch("alloc_lse", (F,), np.float64)
            alloc_ess.fill(0.0)
            alloc_lse.fill(-np.inf)
        alloc_seen: set[int] = set()

        def dispatch_phase2(w: int) -> None:
            """Route block w's incoming particles and send its phase-2 message."""
            dispatched.add(w)
            try:
                if not exchange_on:
                    if self._chans[w].send_phase2(self.k, None, None):
                        self._count_fallbacks(1)
                elif pooled:
                    ids = self._owned(w)
                    if self._chans[w].send_phase2(
                            self.k, pooled_route[0][ids], pooled_route[1][ids]):
                        self._count_fallbacks(1)
                else:
                    self._route_cut(w, t, send_states, send_logw, route)
                p2_sent.append(w)
            except (BrokenPipeError, OSError) as e:
                self._handle_failure(w, WorkerCrashedError(
                    f"worker {w} pipe failed on phase2 send: {e}",
                    worker_id=w, step=self.k))

        def on_phase1(w: int, msg) -> None:
            r = self._chans[w].decode_phase1(msg, t)
            ids = self._owned(w)
            send_states[ids] = r[0]
            send_logw[ids] = r[1]
            best_states[ids] = r[2]
            best_logw[ids] = r[3]
            if partial is not None:
                partial[ids] = r[4]
            self.report.merge_worker_stats(r[5])
            if adaptive and len(r) > 6 and r[6] is not None:
                # Copy out immediately: shm hands back live slab views.
                alloc_ess[ids] = r[6][0]
                alloc_lse[ids] = r[6][1]
                alloc_seen.add(w)
            arrived.add(w)
            if deps is None:
                return
            # Overlap: route any arrived block whose sources have all arrived
            # while the remaining workers are still computing.
            for w2 in sorted(arrived - dispatched):
                if self.membership.is_live(w2) and deps[w2] <= arrived:
                    dispatch_phase2(w2)

        # Phase 1: scatter the measurement (and, under adaptive allocation,
        # each block's live widths for this round) to every live worker...
        for w in self._live_workers():
            try:
                self._count_fallbacks(
                    self._chans[w].send_phase1(
                        measurement, control, self.k, t, tracing,
                        self._widths[self._owned(w)] if adaptive else None))
            except (BrokenPipeError, OSError) as e:
                self._handle_failure(w, WorkerCrashedError(
                    f"worker {w} pipe failed on phase1 send: {e}",
                    worker_id=w, step=self.k))
        # ...then gather tops + estimate partials in arrival order.
        self._gather(self._live_workers(), what="phase1", handler=on_phase1)
        if not arrived:
            raise NoLiveWorkersError("all worker blocks died during phase 1", step=self.k)

        # Global estimate reduction over the assembled per-filter partials
        # (a fixed (F, d+2) array: the float sum cannot depend on arrival
        # order or on the shard assignment).
        est_t0 = self.tracer.clock() if tracing else 0.0
        with self.timer.phase("estimate"):
            estimate = self._reduce_estimate(best_states, best_logw, partial)
        if tracing:
            self.tracer.add("estimate", "stage", est_t0, self.tracer.clock(),
                            attrs={"kernel": "reduce_estimate"})
        self.last_estimate = estimate

        # Route + dispatch whatever the overlap could not cover: pooled
        # topologies (global barrier) and blocks with late/dead sources.
        rest = [w for w in sorted(arrived - dispatched)
                if self.membership.is_live(w)]
        if rest and exchange_on and pooled and pooled_route is None:
            # Pooled routing self-heals: dead blocks' -inf placeholders can
            # never enter the global top-t.
            pooled_route = self._route(
                "route_pooled", send_states[:, :t], send_logw[:, :t], t)
        for w in rest:
            dispatch_phase2(w)

        # Phase 2 gather: per-stage / per-kernel worker timings.
        stage_seconds: dict[str, float] = {}
        round_kernel_seconds: dict[str, float] = {}

        def on_phase2(w: int, msg) -> None:
            recv_clock = self.tracer.clock()
            stages, kernels, telem = self._chans[w].decode_phase2(msg)
            if isinstance(stages, dict):
                for name, sec in stages.items():
                    stage_seconds[name] = max(stage_seconds.get(name, 0.0), sec)
            if isinstance(kernels, dict):
                for name, sec in kernels.items():
                    round_kernel_seconds[name] = max(round_kernel_seconds.get(name, 0.0), sec)
            if isinstance(telem, dict):
                self._merge_worker_telemetry(w, telem, recv_clock)

        self._gather([w for w in p2_sent if self.membership.is_live(w)],
                     what="phase2", handler=on_phase2)
        # Workers run concurrently: the critical path per stage is the
        # slowest block, so fold the per-stage *max* into the master's timer
        # (and likewise for the per-kernel breakdown).
        for name, sec in stage_seconds.items():
            self.timer.seconds[name] = self.timer.seconds.get(name, 0.0) + sec
        for name, sec in round_kernel_seconds.items():
            self.kernel_seconds[name] = self.kernel_seconds.get(name, 0.0) + sec

        # End-of-round allocation decision: only with complete global metrics
        # and a fully healthy topology (a degraded round freezes the widths —
        # re-apportioning around dead blocks would strand budget on rows that
        # cannot resize).
        if (adaptive and not self._healer.dead
                and alloc_seen >= set(self._live_workers())):
            self._allocate_round(alloc_ess, alloc_lse, tracing)

        if (self.respawn_dead or self.rebalance_dead) and self.dead_workers:
            self._recover_dead_workers()
        if self.transport.caps.byte_counters:
            sent = recv = 0
            for w in self._live_workers():
                chan = self._chans[w]
                sent += int(getattr(chan, "bytes_sent", 0))
                recv += int(getattr(chan, "bytes_received", 0))
            self.transport_bytes = {"sent": sent, "received": recv}
            self.tracer.gauge("transport.bytes_sent", sent)
            self.tracer.gauge("transport.bytes_received", recv)
        if tracing:
            # Recorded with explicit endpoints rather than begin/end so a
            # mid-step failure can never leave the span stack unbalanced.
            self.tracer.add(f"step {step_k}", "step", step_t0, self.tracer.clock(),
                            attrs={"k": step_k})
        self.k += 1
        return estimate

    def _merge_worker_telemetry(self, w: int, telem: dict, recv_clock: float) -> None:
        """Fold one worker's phase-2 telemetry into the master tracer.

        Clock alignment: the worker stamped its own ``perf_counter`` reading
        into the reply immediately before sending; ``recv_clock - clock`` is
        therefore (master-worker clock skew + transport latency), an upper
        bound that places worker spans at most one reply-delivery late on the
        merged timeline.
        """
        errors = int(telem.get("errors") or 0)
        if errors:
            self.telemetry_errors += errors
            self.tracer.count("telemetry_errors", errors)
        for name, value in (telem.get("counters") or {}).items():
            self.tracer.count(name, value)
        rows = telem.get("spans") or ()
        if rows:
            offset = recv_clock - float(telem["clock"])
            self.tracer.merge(spans_from_wire(rows, offset), label=f"worker-{w}")

    def _shard_view(self, w: int, route):
        """Worker *w*'s ShardView, recomputed and pushed when stale.

        *route* is the round's frozen ``(epoch, owner, table, mask)``.
        Staleness is keyed on the ``(membership epoch, topology epoch)`` the
        table was frozen at: any join/evict/rebalance or heal/revive
        invalidates every cached view. The refreshed payload is pushed with
        a one-way ``("shard", ...)`` message; the pipe's ordering guarantees
        the worker installs it before the phase-2 pack that relies on it.
        """
        epoch, owner, table, mask = route
        if self._shard_sync.get(w) != epoch:
            view = shard_table_view(w, self._owned(w), owner, table, mask)
            self._chans[w].request(("shard", view.wire_payload()))
            self._shard_views[w] = view
            self._shard_sync[w] = epoch
        return self._shard_views[w]

    def _route_cut(self, w: int, t: int, send_states, send_logw, route) -> None:
        """Pairwise phase-2 dispatch: pack and send only wire-slot particles.

        Intra-shard slots never leave the master: the worker fills them from
        the particles it sent in phase 1. Wire slots (out-of-shard sources
        plus masked/dead placeholders) are packed here with exactly the
        values a dense route would gather — including the row-0 filler and
        ``-inf`` log-weights for invalid slots — so the worker's pooled
        candidate set is bit-identical to an unsharded round.
        """
        start = time.perf_counter()
        view = self._shard_view(w, route)
        src = np.maximum(view.wire_src, 0)
        packed_s = send_states[:, :t][src]
        packed_w = send_logw[:, :t][src]
        packed_w[~view.wire_valid] = -np.inf
        nbytes = packed_s.nbytes + packed_w.nbytes
        self.shard_cut_bytes += nbytes
        self.shard_cut_particles += int(src.size) * t
        self.tracer.count("shard.cut_bytes", nbytes)
        elapsed = time.perf_counter() - start
        self.kernel_seconds["route_pairwise"] = (
            self.kernel_seconds.get("route_pairwise", 0.0) + elapsed)
        self.timer.seconds["exchange"] = (
            self.timer.seconds.get("exchange", 0.0) + elapsed)
        if self.tracer.enabled:
            self.tracer.add("exchange", "stage", start, start + elapsed,
                            attrs={"kernel": "route_pairwise", "block": w,
                                   "wire_slots": int(src.size),
                                   "cut_bytes": nbytes})
        if self._chans[w].send_phase2c(self.k, t, packed_s, packed_w):
            self._count_fallbacks(1)

    def _route(self, kernel: str, *args):
        """Dispatch an exchange-routing kernel through the registry, timed."""
        start = time.perf_counter()
        out = default_registry().batch(kernel)(*args)
        elapsed = time.perf_counter() - start
        self.kernel_seconds[kernel] = self.kernel_seconds.get(kernel, 0.0) + elapsed
        self.timer.seconds["exchange"] = self.timer.seconds.get("exchange", 0.0) + elapsed
        if self.tracer.enabled:
            self.tracer.add("exchange", "stage", start, start + elapsed,
                            attrs={"kernel": kernel})
        return out

    def _reduce_estimate(self, best_states: np.ndarray, best_logw: np.ndarray,
                         partial: np.ndarray | None) -> np.ndarray:
        """Reduction over the global per-filter partials, NaN-safe.

        ``partial`` is the assembled ``(F, d+2)`` array of per-sub-filter
        ``[Σ w·x | Σ w | row shift]`` rows (``None`` under ``max_weight``).
        Keyed by global filter id, it is identical however the sub-filters
        were sharded over workers — which makes the weighted-mean estimate
        (like the max-weight one) shard-invariant to the bit. Dead or fully
        degenerate rows carry ``-inf`` shifts and scale to exactly zero.
        """
        if self.config.estimator == "max_weight":
            return max_weight_estimate(best_states[:, None, :], best_logw[:, None])
        d = self.model.state_dim
        shift, wsum = partial[:, d + 1], partial[:, d]
        finite = (np.isfinite(shift) & np.isfinite(wsum) & (wsum > 0)
                  & np.all(np.isfinite(partial[:, :d]), axis=1))
        if finite.any():
            g = shift[finite].max()
            scale = np.zeros(shift.shape[0], dtype=np.float64)
            scale[finite] = np.exp(shift[finite] - g)
            num = np.einsum("f,fd->d", scale, partial[:, :d])
            den = float(scale @ wsum)
            if den > 0 and np.all(np.isfinite(num)):
                return (num / den).astype(np.float64)
        # No usable partial survived: weighted mean over the per-filter
        # best particles (itself guarded against NaN states/weights).
        return weighted_mean_estimate(best_states[:, None, :], best_logw[:, None])

    # -- adaptive allocation ----------------------------------------------------
    def _allocate_round(self, ess: np.ndarray, lse: np.ndarray,
                        tracing: bool) -> None:
        """Decide next round's width vector from this round's global metrics.

        The master combines every block's pre-resample metrics (the
        worker-local logsumexps softmax into global weight-mass shares),
        runs the allocation policy, and records the new widths; they reach
        the workers with the *next* phase-1 scatter, where each block
        resizes deterministically before sampling. ``particles_migrated``
        counts exactly what :func:`repro.allocation.migrate.resize_block`
        will move, so master counters match worker behaviour without an
        extra reply field.
        """
        start = time.perf_counter()
        share = share_from_logsumexp(lse)
        self.tracer.gauges("alloc.ess.f", ess.tolist())
        self.tracer.gauge("alloc.mass_hhi", mass_concentration(share))
        new_widths = self.alloc_policy.decide(self._widths, ess, share)
        changes = int((new_widths != self._widths).sum())
        if changes:
            migrated = int(np.abs(new_widths - self._widths).sum())
            self.alloc_counters["width_changes"] += changes
            self.alloc_counters["particles_migrated"] += migrated
            self.tracer.count("alloc.width_changes", changes)
            self.tracer.count("alloc.particles_migrated", migrated)
            self._widths = np.asarray(new_widths, dtype=np.int64)
        for i, w in enumerate(self._widths):
            self.tracer.gauge(f"alloc.width.f{i}", int(w))
        elapsed = time.perf_counter() - start
        self.timer.seconds["allocate"] = (
            self.timer.seconds.get("allocate", 0.0) + elapsed)
        if tracing:
            self.tracer.add("allocate", "stage", start, start + elapsed,
                            attrs={"policy": self.alloc_policy.name,
                                   "width_changes": changes})

    @property
    def widths(self) -> np.ndarray | None:
        """Per-sub-filter live widths (``None`` under the fixed layout).

        The master's view: widths *decided* at the last completed round,
        which the workers apply at the start of the next one.
        """
        return None if self._widths is None else self._widths.copy()

    @property
    def live_particles(self) -> int:
        """Total live particles across sub-filters (excludes padding)."""
        if self._widths is None:
            return self.config.total_particles
        return int(self._widths.sum())

    # -- recovery ---------------------------------------------------------------
    def _recover_dead_workers(self) -> None:
        """Bring dead blocks' sub-filters back: respawn or rebalance.

        One routine for both rungs, in four steps per dead worker:

        1. plan the targets — a fresh process in the dead worker's slot
           (respawn) or the least-loaded deal over the survivors
           (:meth:`Membership.deal`, rebalance);
        2. clone each sub-filter from its nearest live donor by hop count on
           the original topology, against the ownership from before the
           recovery: respawns read every donor before any block is revived;
           a rebalance changes the survivors' layouts, so each dead
           worker's deal re-reads its donors;
        3. bump the sub-filters' generation tags, so a replacement stream
           never replays its predecessor's draws;
        4. deliver the clones with ``grow`` — a respawned process starts with
           no sub-filters and grows the whole dead block.

        The healed topology then restitches the revived ids. A block whose
        donors are not all reachable this round is retried next round.
        """
        donors = None
        for w in sorted(self.dead_workers):
            orphans = self._owned(w)
            if orphans.size == 0:
                continue  # rebalanced away; the worker just stays dead
            plan = (self.membership.deal(w) if self.rebalance_dead
                    else {w: orphans})
            if donors is None or self.rebalance_dead:
                donors = (self._healer.donor_map(),
                          self.membership.live_owner_of(), {})
            clones = {}
            for target, ids in sorted(plan.items()):
                clone = self._clone_from_donors(ids, *donors)
                if clone is None:
                    break
                clones[target] = clone
            if len(clones) < len(plan):
                continue  # no live donor this round; try again next step
            if self.rebalance_dead:
                self.membership.rebalance(w, self.k)
            else:
                self._spawn_worker(w, ids=np.empty(0, dtype=np.int64))
            self._topo_epoch += 1
            grown = 0
            for target, ids in sorted(plan.items()):
                self._filter_tags[ids] += 1
                try:
                    self._request(target, ("grow", ids, *clones[target],
                                           self._filter_tags[ids].tolist()), "grow")
                except WorkerFailure as e:
                    self._handle_failure(target, e)
                    continue
                self._healer.revive(ids)
                self._topo_epoch += 1
                grown += 1
            if self.rebalance_dead:
                rung = "rebalance"
                detail = f"{int(orphans.size)} filters over {len(plan)} survivors"
            elif grown:
                rung = "respawn"
                self.report.respawns += 1
                detail = f"filter_tags={self._filter_tags[orphans].tolist()}"
            else:
                continue
            self.report.record_escalation(rung)
            self.tracer.count(f"escalation.{rung}")
            if self.supervisor is not None:
                self.supervisor.escalate(rung, w, self.k, detail=detail)

    def _clone_from_donors(self, ids: np.ndarray, donor_map: dict,
                           owner_of: np.ndarray, snaps: dict):
        """Donor-cloned ``(states, logw, widths)`` for the given ids.

        For each sub-filter the healer names the nearest live donor by hop
        count on the original topology; the donor's current particles seed
        the replacement at uniform weights. Donor blocks are snapshotted
        once into *snaps*. ``None`` when any id lacks a reachable live
        donor (the caller retries next round).
        """
        B = int(ids.size)
        new_states = np.empty((B, self._capacity, self.model.state_dim),
                              dtype=self.dtype_policy.state)
        new_logw = np.zeros((B, self._capacity), dtype=self.dtype_policy.weight)
        new_widths = None
        if self._widths is not None:
            # Revived rows resume at the widths the master has been holding
            # for them (frozen while dead); slots beyond each row's width
            # are padding again.
            new_widths = self._widths[ids].copy()
            for i in range(B):
                new_logw[i, int(new_widths[i]):] = -np.inf
        for i, f in enumerate(ids):
            donor = donor_map.get(int(f))
            owner = None if donor is None else int(owner_of[donor])
            if owner is None or owner < 0 or not self.membership.is_live(owner):
                return None
            if owner not in snaps:
                try:
                    snaps[owner] = (self._snapshot(owner)[0],
                                    self._owned(owner).copy())
                except WorkerFailure as e:
                    self._handle_failure(owner, e)
                    return None
            donor_states, donor_ids = snaps[owner]
            new_states[i] = donor_states[int(np.searchsorted(donor_ids, donor))]
        return new_states, new_logw, new_widths

    # -- checkpoint / restore ---------------------------------------------------
    def _collect_snapshots(self, strict: bool = True) -> dict[int, tuple]:
        """``{worker: (states, logw, rng_state, heal_counters, widths)}`` from
        live blocks.

        Snapshot replies are tagged ``("snap", ...)`` and gathered with an
        accept filter, so stale replies of an aborted round queued ahead of
        them are drained and discarded rather than misparsed. ``strict``
        propagates a failing worker (golden step-boundary checkpoints must
        be complete); non-strict skips it (checkpoint-on-abort saves
        whatever survives).
        """
        snaps: dict[int, tuple] = {}
        for w in self._live_workers():
            try:
                snaps[w] = self._snapshot(w)
            except WorkerFailure:
                if strict:
                    raise
        return snaps

    def _snapshot(self, w: int) -> tuple:
        """Worker *w*'s ``(states, logw, rng_state, heal_counters, widths)``."""
        def is_snap(msg):
            return (isinstance(msg, tuple) and msg
                    and isinstance(msg[0], str) and msg[0] == "snap")

        return self._request(w, ("snapshot",), "snapshot", accept=is_snap)[1:]

    def save_checkpoint(self, path: str, *, boundary: bool = True) -> dict | None:
        """Atomically write a resumable snapshot of the whole run to *path*.

        Captures the full population (NaN for dead blocks), every live
        sub-filter's exact RNG stream state and generation tag, the shard
        assignment, the healed-topology dead set, and the resilience
        report — everything
        :meth:`load_checkpoint` needs to make the resumed run bit-identical
        to one that was never interrupted. Returns the manifest written
        (``None`` if a ``ckpt_partial_write`` fault interrupted the write;
        the previous checkpoint at *path* then survives untouched).

        ``boundary=False`` marks a mid-round save (checkpoint-on-abort):
        still deterministic to resume, but not golden-trace.
        """
        if not self._started:
            raise CheckpointError("cannot checkpoint before the filter started")
        cfg = self.config
        snaps = self._collect_snapshots(strict=boundary)
        if not snaps:
            raise CheckpointError("no live worker could be snapshotted")
        F, m, d = cfg.n_filters, self._capacity, self.model.state_dim
        states = np.full((F, m, d), np.nan, dtype=self.dtype_policy.state)
        logw = np.full((F, m), np.nan, dtype=self.dtype_policy.weight)
        widths = None
        if self._widths is not None:
            # Worker-applied widths (the master's pending vector may be one
            # decision ahead; it is saved separately in the alloc meta).
            widths = self._widths.copy()
        alive = np.zeros(self.n_workers, dtype=bool)
        worker_rng: dict[str, dict] = {}
        worker_heal: dict[str, dict] = {}
        for w, (s, lw, rng_state, heal, wd) in snaps.items():
            ids = self._owned(w)
            states[ids] = s
            logw[ids] = lw
            if widths is not None and wd is not None:
                widths[ids] = wd
            alive[w] = True
            worker_rng[str(w)] = rng_state
            worker_heal[str(w)] = heal
        arrays = {"states": states, "log_weights": logw, "alive": alive}
        if widths is not None:
            arrays["widths"] = widths
        if self.last_estimate is not None:
            arrays["last_estimate"] = np.asarray(self.last_estimate, dtype=np.float64)
        meta = {
            "backend": "multiprocess",
            "boundary": bool(boundary),
            "k": int(self.k),
            "n_workers": int(self.n_workers),
            "transport": self.transport.name,
            "config": distributed_config_to_dict(cfg),
            # Schema v4: the shard assignment + per-filter RNG generations.
            # Together with the filter-keyed stream states they let
            # load_checkpoint re-deal the run over a *different* worker
            # count, bit-identically.
            "assignment": [int(x) for x in self.membership.assignment()],
            "filter_tags": [int(t) for t in self._filter_tags],
            "membership": self.membership.summary(),
            "dead_filters": sorted(int(f) for f in self._healer.dead),
            "worker_rng": worker_rng,
            "worker_heal_counters": worker_heal,
            "report": self.report.summary(),
            "supervisor": None if self.supervisor is None
                          else self.supervisor.summary(),
        }
        if self.alloc_policy.name != "fixed":
            meta["alloc"] = {
                "policy": self.alloc_policy.name,
                "state": self.alloc_policy.state_dict(),
                # The master's decided-but-possibly-unapplied width vector:
                # restoring it and replaying the next phase-1 scatter makes
                # the resumed width trajectory bit-identical.
                "widths": [int(x) for x in self._widths],
                "counters": {k: int(v) for k, v in self.alloc_counters.items()},
            }
        interrupt = False
        damage = []
        if self.fault_plan is not None:
            for f in self.fault_plan.checkpoint_faults_for(self.k):
                if f.kind == "ckpt_partial_write":
                    interrupt = True
                else:
                    damage.append(f)
        manifest = write_checkpoint(path, arrays, meta, interrupt_write=interrupt)
        if manifest is None:
            self.tracer.count("checkpoint.interrupted")
            return None
        self.report.checkpoints_saved += 1
        self.tracer.count("checkpoint.saved")
        for f in damage:
            mode = "corrupt" if f.kind == "ckpt_corrupt" else "truncate"
            corrupt_checkpoint_file(path, self.fault_plan.rng_for(f),
                                    mode=mode, fraction=f.fraction)
            self.tracer.count(f"checkpoint.fault.{mode}")
        return manifest

    def load_checkpoint(self, path: str) -> dict:
        """Restore a :meth:`save_checkpoint` snapshot into this filter.

        Spawns the process tree if needed, pushes each live shard's
        population + RNG stream states into its worker, retires shards that
        were dead at save time (healing the topology around them, without
        re-counting their segment reclaims), and restores the step counter,
        per-filter generation tags, and resilience report. After this
        returns, the next :meth:`step` produces output bit-identical to the
        run the checkpoint was taken from.

        The saved per-filter stream states are flattened into one map and
        re-dealt to each live worker's sub-filter ids, so the same path
        serves **elastic resume**: a checkpoint written by an N-worker run
        (with no healed-out sub-filters) loads into an M-worker filter
        bit-identically, because no sub-filter's randomness depends on
        which worker hosts it. Multiprocess checkpoints of schema v1-v3
        store per-worker streams, which no longer exist, and are rejected.
        """
        arrays, manifest = read_checkpoint(path)
        meta = manifest["meta"]
        if meta.get("backend") != "multiprocess":
            raise CheckpointError(
                f"checkpoint was written by backend {meta.get('backend')!r}, "
                f"not 'multiprocess'")
        worker_rng = meta.get("worker_rng", {})
        if any(rec.get("kind") != "filter_striped" for rec in worker_rng.values()):
            raise CheckpointError(
                f"checkpoint (schema v{manifest.get('schema_version')}) stores "
                "per-worker RNG streams, which are no longer restorable: "
                "multiprocess runs draw from per-sub-filter streams")
        saved_cfg = normalize_config_record(meta.get("config", {}))
        if saved_cfg != distributed_config_to_dict(self.config):
            raise CheckpointError(
                "checkpoint configuration does not match this filter's "
                "configuration")
        cfg = self.config
        alive = np.asarray(arrays["alive"]).astype(bool)
        same_layout = int(meta["n_workers"]) == self.n_workers
        stream_map = {int(f): [int(f), int(tag), st]
                      for rec in worker_rng.values()
                      for f, tag, st in rec["streams"]}
        if not same_layout:
            n_dead = len(meta.get("dead_filters", []))
            if n_dead:
                raise CheckpointError(
                    "cannot resume across a different shard count while "
                    f"{n_dead} sub-filters are healed out")
            if len(stream_map) < cfg.n_filters:
                raise CheckpointError(
                    "cannot resume across a different shard count: the "
                    "checkpoint lacks some sub-filters' RNG stream states")
        self._filter_tags = np.asarray(meta["filter_tags"], dtype=np.int64)
        # A different worker count re-deals over the contiguous default.
        target_assign = (np.asarray(meta["assignment"], dtype=np.int64)
                         if same_layout else None)
        block = cfg.n_filters // self.n_workers
        want = (np.repeat(np.arange(self.n_workers, dtype=np.int64), block)
                if target_assign is None else target_assign)
        if self._started and not np.array_equal(
                self.membership.assignment(), want):
            # A worker's shard is fixed at spawn: when the saved assignment
            # differs from the running tree's (post-rebalance checkpoint, or
            # a different worker count), restart the tree under the saved
            # layout before pushing state.
            self.close()
        if not self._started:
            self._start(assignment=target_assign)
        # The healed-topology view is rebuilt from the checkpoint, not
        # merged: any dead set this instance accumulated before the load is
        # superseded by the saved run's.
        self._healer = TopologyHealer(self.topology, bridge=self.heal_bridge)
        states, logw = arrays["states"], arrays["log_weights"]
        widths_all = arrays.get("widths")
        alloc = meta.get("alloc")
        if self.alloc_policy.name != "fixed":
            if not alloc:
                raise CheckpointError(
                    "checkpoint carries no allocation state but this filter "
                    f"uses the {self.alloc_policy.name!r} policy")
            if alloc.get("policy") != self.alloc_policy.name:
                raise CheckpointError(
                    f"checkpoint allocation policy {alloc.get('policy')!r} "
                    f"does not match this filter's {self.alloc_policy.name!r}")
            self.alloc_policy.load_state_dict(alloc.get("state") or {})
            self._widths = np.asarray(alloc["widths"], dtype=np.int64)
            self.alloc_counters = {
                "particles_migrated": 0, "width_changes": 0,
                **{k_: int(v) for k_, v in (alloc.get("counters") or {}).items()},
            }
        else:
            self._widths = None
        k = int(meta["k"])
        # Heal counters are shard-local telemetry aggregates (they never
        # affect the numerics): they travel only with an unchanged layout.
        heal = meta.get("worker_heal_counters", {}) if same_layout else {}
        live = []
        for w in range(self.n_workers):
            ids = self._owned(w)
            if same_layout and not alive[w]:
                # Dead at save time: retire it here too. The spawned worker
                # is harmless — it never computed.
                if self.membership.is_live(w):
                    self._declare_dead(w, count_reclaim=False)
                else:
                    self._healer.mark_dead(ids)
                continue
            if not self.membership.is_live(w):
                # Alive in the checkpoint but dead here (loading into a
                # degraded instance): give the shard a fresh process; the
                # restore below installs its exact saved state.
                self._spawn_worker(w)
            rng_rec = {"kind": "filter_striped", "rng": cfg.rng, "seed": cfg.seed,
                       "streams": [stream_map[int(f)] for f in ids]}
            self._send(w, ("restore", np.ascontiguousarray(states[ids]),
                           np.ascontiguousarray(logw[ids]), k, rng_rec,
                           heal.get(str(w), {}),
                           None if widths_all is None
                           else np.ascontiguousarray(widths_all[ids])))
            live.append(w)
        self._gather(live, what="restore")
        self._topo_epoch += 1  # force shard views to rebuild post-restore
        self.k = k
        self.last_estimate = (None if "last_estimate" not in arrays
                              else np.asarray(arrays["last_estimate"]))
        self.report = ResilienceReport.from_summary(meta.get("report") or {})
        self.report.checkpoints_restored += 1
        self.tracer.count("checkpoint.restored")
        return manifest

    def gather_population(self) -> tuple[np.ndarray, np.ndarray]:
        """Collect the full (states, log_weights) for inspection/tests.

        Dead blocks (healed mode) are returned as NaN so the caller can see
        exactly which sub-filter slots are out of service.
        """
        cfg = self.config
        states = np.full((cfg.n_filters, self._capacity, self.model.state_dim),
                         np.nan, dtype=self.dtype_policy.state)
        logw = np.full((cfg.n_filters, self._capacity), np.nan,
                       dtype=self.dtype_policy.weight)
        for w, (s, lw, *_) in self._collect_snapshots().items():
            ids = self._owned(w)
            states[ids], logw[ids] = s, lw
        return states, logw
