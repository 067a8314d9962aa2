"""Shared parity harness: a cohort-stepped session must be bit-identical to
the same (model, config) pair run alone on a DistributedParticleFilter."""

import numpy as np
import pytest

from repro.core import DistributedFilterConfig, DistributedParticleFilter
from repro.models import LinearGaussianModel
from repro.prng import make_rng
from repro.sessions import SessionManager


def scalar_model():
    return LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])


def control_model():
    """:func:`scalar_model` driven through a two-column control matrix."""
    return LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]],
                               B=[[0.5, -0.25]])


#: measurements on which :class:`PoisonModel` gives every particle of one
#: sub-filter per filter (``KILL_ROW``) or of the whole filter
#: (``KILL_BLOCK``) a ``-inf`` log-likelihood.
KILL_ROW, KILL_BLOCK = 50.0, 60.0


class PoisonModel(LinearGaussianModel):
    """:func:`scalar_model` with unhealthy rounds, for the heal path's parity.

    The poisoning depends only on particle values, so a cohort slab and a
    solo filter poison exactly the same particles: about 3% of predicted
    states turn ``+inf`` (their log-likelihood stays finite, so only the
    state check catches them) and about 3% of the finite ones get a NaN
    log-likelihood. A ``KILL_ROW`` measurement empties row 0 of every
    filter (rows are taken modulo ``n_filters``, the one place the model
    sees the row layout); ``KILL_BLOCK`` empties every row of the filter
    that receives it.
    """

    def __init__(self, n_filters):
        super().__init__(A=[[0.9]], C=[[1.0]], Q=[[0.04]], R=[[0.01]])
        self.n_filters = n_filters

    def signature(self):
        return ("poison", self.n_filters) + super().signature()

    def transition(self, states, control, k, rng):
        out = super().transition(states, control, k, rng)
        out[np.abs(out[..., 0] * 1e3) % 1.0 < 0.03] = np.inf
        return out

    def log_likelihood(self, states, measurement, k):
        safe = np.where(np.isfinite(states), states, 0.0)
        ll = super().log_likelihood(safe, measurement, k)
        ll[np.isfinite(states).all(axis=-1) & (np.abs(safe[..., 0] * 7e2) % 1.0 < 0.03)] = np.nan
        z = np.asarray(measurement)[..., 0]
        row0 = (np.arange(states.shape[0]) % self.n_filters == 0)[:, None]
        kill = ((z == KILL_ROW) & row0) | (z == KILL_BLOCK)
        return np.where(kill, -np.inf, ll)


def measurements(n_sessions, n_steps, meas_dim=1, seed=77):
    rng = make_rng("numpy", seed=seed)
    return rng.normal((n_sessions, n_steps, meas_dim))


def solo_run(model, cfg, meas, controls=None):
    """Trajectory + final population of one filter stepped alone; step
    ``k`` takes ``controls[k]`` when *controls* is given (``None`` entries
    step without one)."""
    pf = DistributedParticleFilter(model, cfg)
    pf.initialize()
    if controls is None:
        controls = [None] * len(meas)
    ests = np.array([np.asarray(pf.step(z, u), dtype=np.float64)
                     for z, u in zip(meas, controls)])
    widths = pf._state.widths
    return {
        "estimates": ests,
        "states": pf.states.copy(),
        "log_weights": pf.log_weights.copy(),
        "widths": None if widths is None else widths.copy(),
        "heal_counters": dict(pf.heal_counters),
    }


def cohort_run(model, cfgs, meas, manager=None, controls=None):
    """The same sessions stepped through one SessionManager; returns a list
    of per-session dicts shaped like :func:`solo_run`'s. Session ``i``
    submits ``controls[i][k]`` with step ``k`` when *controls* is given."""
    mgr = manager or SessionManager()
    S, T = meas.shape[:2]
    for i, cfg in enumerate(cfgs):
        mgr.attach(f"s{i}", model, cfg)
    ests = [[] for _ in range(S)]
    for k in range(T):
        for i in range(S):
            mgr.submit(f"s{i}", meas[i, k],
                       None if controls is None else controls[i][k])
        for res in mgr.tick():
            ests[int(res.session_id[1:])].append(res.estimate)
    out = []
    for i in range(S):
        sess = mgr.sessions[f"s{i}"]
        out.append({
            "estimates": np.array(ests[i]),
            "states": np.asarray(sess.states).copy(),
            "log_weights": np.asarray(sess.log_weights).copy(),
            "widths": None if sess.widths is None else np.asarray(sess.widths).copy(),
            "heal_counters": dict(sess.heal_counters),
        })
    return out


def assert_bit_identical(got, want, label=""):
    np.testing.assert_array_equal(got["estimates"], want["estimates"],
                                  err_msg=f"{label}: estimates diverged")
    np.testing.assert_array_equal(got["states"], want["states"],
                                  err_msg=f"{label}: states diverged")
    np.testing.assert_array_equal(got["log_weights"], want["log_weights"],
                                  err_msg=f"{label}: log-weights diverged")
    assert (got["widths"] is None) == (want["widths"] is None)
    if want["widths"] is not None:
        np.testing.assert_array_equal(got["widths"], want["widths"],
                                      err_msg=f"{label}: widths diverged")
