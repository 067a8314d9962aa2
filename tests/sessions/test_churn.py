"""Attach/detach churn: membership changes must never disturb cohort-mates.

The satellite chaos test of the session layer — a session killed mid-cohort
(or joining late, or idling) leaves every other session's trace bit-identical
to an undisturbed run of that session alone.
"""

import numpy as np

from repro.core import DistributedFilterConfig
from repro.sessions import SessionManager
from repro.topology import resolve_topology
from tests.sessions.helpers import (
    assert_bit_identical,
    measurements,
    scalar_model,
    solo_run,
)


def base_cfg(seed, **kw):
    kw.setdefault("n_particles", 8)
    kw.setdefault("n_filters", 4)
    kw.setdefault("topology", "ring")
    kw.setdefault("n_exchange", 1)
    return DistributedFilterConfig(seed=seed, **kw)


def collect(mgr, ids, meas, steps, k0=0):
    """Submit+tick *steps* rounds for *ids*; returns per-id estimate lists."""
    ests = {i: [] for i in ids}
    for k in range(k0, k0 + steps):
        for i in ids:
            mgr.submit(i, meas[int(i[1:]), k])
        for res in mgr.tick():
            ests[res.session_id].append(res.estimate)
    return ests


def snapshot(mgr, sid, estimates):
    sess = mgr.sessions[sid]
    return {
        "estimates": np.array(estimates),
        "states": np.asarray(sess.states).copy(),
        "log_weights": np.asarray(sess.log_weights).copy(),
        "widths": None if sess.widths is None else np.asarray(sess.widths).copy(),
    }


class TestDetachChurn:
    def test_mid_run_kill_leaves_mates_bit_identical(self):
        model = scalar_model()
        cfgs = [base_cfg(seed=20 + i) for i in range(3)]
        meas = measurements(3, 7, seed=5)
        mgr = SessionManager()
        for i, cfg in enumerate(cfgs):
            mgr.attach(f"s{i}", model, cfg)
        ests = collect(mgr, ["s0", "s1", "s2"], meas, steps=3)
        killed = mgr.detach("s1")
        tail = collect(mgr, ["s0", "s2"], meas, steps=4, k0=3)
        for i in (0, 2):
            sid = f"s{i}"
            got = snapshot(mgr, sid, ests[sid] + tail[sid])
            want = solo_run(model, cfgs[i], meas[i])
            assert_bit_identical(got, want, label=f"survivor {sid}")
        # The victim's stored population matches its own solo run at the
        # step it was killed.
        want1 = solo_run(model, cfgs[1], meas[1, :3])
        got1 = {"estimates": np.array(ests["s1"]), "states": killed.states,
                "log_weights": killed.log_weights, "widths": killed.widths}
        assert_bit_identical(got1, want1, label="victim")
        assert killed.k == 3

    def test_detached_session_reattaches_and_continues_its_trace(self):
        model = scalar_model()
        cfgs = [base_cfg(seed=30 + i) for i in range(2)]
        meas = measurements(2, 6, seed=6)
        mgr = SessionManager()
        for i, cfg in enumerate(cfgs):
            mgr.attach(f"s{i}", model, cfg)
        head = collect(mgr, ["s0", "s1"], meas, steps=2)
        moved = mgr.detach("s1")
        # Re-admit the same FilterSession object elsewhere: population, RNG
        # state and step clock travel with it.
        other = SessionManager()
        other.readmit(moved)
        tail = collect(other, ["s1"], meas, steps=4, k0=2)
        got = snapshot(other, "s1", head["s1"] + tail["s1"])
        want = solo_run(model, cfgs[1], meas[1])
        assert_bit_identical(got, want, label="reattached")

    def test_empty_cohort_is_dropped(self):
        model = scalar_model()
        mgr = SessionManager()
        mgr.attach("a", model, base_cfg(seed=1))
        mgr.attach("b", model, base_cfg(seed=2))
        mgr.detach("a")
        assert len(mgr.cohorts) == 1
        mgr.detach("b")
        assert not mgr.cohorts
        assert mgr.counters["detached"] == 2


class TestLateAttachAndIdling:
    def test_late_attach_disturbs_nobody(self):
        model = scalar_model()
        cfgs = [base_cfg(seed=40 + i) for i in range(3)]
        meas = measurements(3, 6, seed=7)
        mgr = SessionManager()
        mgr.attach("s0", model, cfgs[0])
        mgr.attach("s1", model, cfgs[1])
        head = collect(mgr, ["s0", "s1"], meas, steps=2)
        mgr.attach("s2", model, cfgs[2])
        tail = collect(mgr, ["s0", "s1", "s2"], meas, steps=4, k0=2)
        for i, k_from in ((0, 0), (1, 0), (2, 2)):
            sid = f"s{i}"
            ests = head.get(sid, []) + tail[sid]
            got = snapshot(mgr, sid, ests)
            want = solo_run(model, cfgs[i], meas[i, k_from:])
            assert_bit_identical(got, want, label=f"late-attach {sid}")

    def test_idle_session_keeps_parity_under_partial_ticks(self):
        # s1 only observes every other round: the cohort steps a sub-slab
        # on the off rounds, and both sessions still match their solo runs.
        model = scalar_model()
        cfgs = [base_cfg(seed=50 + i) for i in range(2)]
        meas = measurements(2, 8, seed=8)
        mgr = SessionManager()
        for i, cfg in enumerate(cfgs):
            mgr.attach(f"s{i}", model, cfg)
        ests = {"s0": [], "s1": []}
        seen1 = []
        for k in range(8):
            mgr.submit("s0", meas[0, k])
            if k % 2 == 0:
                mgr.submit("s1", meas[1, k])
                seen1.append(k)
            for res in mgr.tick():
                ests[res.session_id].append(res.estimate)
        got0 = snapshot(mgr, "s0", ests["s0"])
        assert_bit_identical(got0, solo_run(model, cfgs[0], meas[0]), label="busy")
        got1 = snapshot(mgr, "s1", ests["s1"])
        assert_bit_identical(got1, solo_run(model, cfgs[1], meas[1, seen1]),
                             label="idler")


def test_contexts_slice_one_neighbour_table():
    # One tick per ready count R: every count gets its own context, and
    # each context's table is the first R*X rows of the cohort's one table.
    n, X = 12, 4
    mgr = SessionManager()
    for i in range(n):
        mgr.attach(f"s{i}", scalar_model(), base_cfg(seed=i))
    cohort = next(iter(mgr.cohorts.values()))
    meas = measurements(n, 1)
    for R in range(1, n + 1):
        for i in range(R):
            mgr.submit(f"s{i}", meas[i, 0])
        assert len(mgr.tick()) == R
    base = resolve_topology("ring", X).neighbor_table()
    full = np.concatenate([np.where(base >= 0, base + j * X, -1) for j in range(n)])
    assert cohort._table.nbytes == full.nbytes
    assert sorted(cohort._ctx_cache) == list(range(1, n + 1))
    for R, ctx in cohort._ctx_cache.items():
        assert np.shares_memory(ctx.table, cohort._table)
        assert np.shares_memory(ctx.mask, cohort._mask)
        np.testing.assert_array_equal(ctx.table, full[:R * X])
        np.testing.assert_array_equal(ctx.mask, full[:R * X] >= 0)
