"""Tests for the kernel registry: API, auto-generated differential parity
tests over every validatable kernel, and cost-model integration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device import validate
from repro.device.costmodel import CostModel, filter_round_cost
from repro.device.spec import get_platform
from repro.kernels import (
    CostParams,
    CostSig,
    KernelDef,
    KernelRegistry,
    default_registry,
    weight_argsort_batch,
)
from repro.kernels.registry import STABLE_ARGSORT_MAX_KEYS, stable_row_argsort

REG = default_registry()
VALIDATABLE = REG.validatable()


# ---------------------------------------------------------------------------
# Auto-generated differential tests: every validatable kernel, several sizes.
# Each case checks batch<->work-group parity AND measured SimtStats against
# the kernel's CostSig prediction (barriers, work) in one harness run.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("kdef", VALIDATABLE, ids=lambda k: k.name)
def test_kernel_parity_and_cost_prediction(kdef, n):
    report = validate(kdef, n=n, seed=0)
    assert report.ok, "\n".join(report.messages)
    assert report.parity_ok and report.work_ok
    if kdef.check_barriers:
        assert report.barriers_ok


def test_validatable_set_is_substantial():
    # The registry must expose the paper's core kernels to the harness.
    names = {k.name for k in VALIDATABLE}
    assert {"sort", "bitonic_sort", "blelloch_scan", "tree_reduce", "rws",
            "alias_build", "alias_sample", "metropolis"} <= names


def test_validate_rejects_cost_only_kernels():
    with pytest.raises(ValueError):
        validate(REG.get("rand"))


# ---------------------------------------------------------------------------
# Registry API
# ---------------------------------------------------------------------------

class TestRegistryAPI:
    def test_default_registry_is_cached(self):
        assert default_registry() is REG

    def test_expected_kernels_registered(self):
        for name in ("rand", "sampling", "sort", "estimate", "route_pairwise",
                     "route_pooled", "rws", "vose", "metropolis"):
            assert name in REG

    def test_duplicate_registration_raises(self):
        reg = KernelRegistry()
        kdef = KernelDef(name="k", description="", cost=CostSig())
        reg.register(kdef)
        with pytest.raises(ValueError, match="already registered"):
            reg.register(KernelDef(name="k", description="", cost=CostSig()))

    def test_unknown_kernel_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            REG.get("definitely-not-a-kernel")

    def test_cost_only_kernel_has_no_implementations(self):
        with pytest.raises(ValueError, match="no batch implementation"):
            REG.batch("rand")
        with pytest.raises(ValueError, match="no work-group implementation"):
            REG.workgroup("route_pooled")

    def test_dispatch_validates_form(self):
        with pytest.raises(ValueError, match="form must be"):
            REG.dispatch("sort", np.zeros((1, 4)), form="gpu")

    def test_dispatch_routes_to_batch(self):
        lw = np.random.default_rng(0).normal(size=(3, 16))
        np.testing.assert_array_equal(
            REG.dispatch("sort", lw), weight_argsort_batch(lw))

    def test_iteration_and_len(self):
        assert len(REG) == len(REG.names())
        assert sorted(k.name for k in REG) == REG.names()


def test_weight_argsort_is_stable_descending():
    # The engine's golden traces depend on this exact tie-breaking order.
    lw = np.array([[0.5, 1.5, 0.5, -1.0]])
    np.testing.assert_array_equal(
        weight_argsort_batch(lw), np.argsort(-lw, axis=1, kind="stable"))


def _sort_rows(rng, F, m, kinds):
    lw = rng.normal(scale=5.0, size=(F, m))
    for f, kind in enumerate(kinds[:F]):
        if kind == "ties":
            lw[f] = np.round(lw[f])
        elif kind == "nan":
            lw[f, rng.random(m) < 0.3] = np.nan
        elif kind == "zeros":
            lw[f, rng.random(m) < 0.5] = 0.0
            lw[f, rng.random(m) < 0.5] = -0.0
        elif kind == "padded":
            lw[f, rng.integers(m):] = -np.inf
    return lw


@settings(max_examples=150, deadline=None)
@given(
    F=st.integers(min_value=1, max_value=70),
    m=st.integers(min_value=1, max_value=70),
    seed=st.integers(min_value=0, max_value=2**31),
    kinds=st.lists(st.sampled_from(["distinct", "ties", "nan", "zeros", "padded"]),
                   min_size=70, max_size=70),
    dtype=st.sampled_from([np.float64, np.float32]),
)
def test_weight_argsort_matches_stable_argsort(F, m, seed, kinds, dtype):
    # The fast sort must return the stable permutation on every row: rows
    # of distinct keys through the uniqueness check, ties, NaN, +-0.0 and
    # -inf padding through the stable re-sort.
    lw = _sort_rows(np.random.default_rng(seed), F, m, kinds).astype(dtype)
    np.testing.assert_array_equal(
        weight_argsort_batch(lw), np.argsort(-lw, axis=1, kind="stable"))


@settings(max_examples=60, deadline=None)
@given(
    F=st.integers(min_value=1, max_value=70),
    m=st.integers(min_value=2, max_value=70),
    seed=st.integers(min_value=0, max_value=2**31),
    kinds=st.lists(st.sampled_from(["distinct", "ties", "nan", "zeros", "padded"]),
                   min_size=70, max_size=70),
)
def test_tie_checked_sort_matches_stable_argsort(F, m, seed, kinds):
    # The same rows, repeated up to the size where the SIMD argsort and its
    # tie check take over from the stable sort.
    lw = _sort_rows(np.random.default_rng(seed), F, m, kinds)
    keys = np.tile(-lw, (-(-STABLE_ARGSORT_MAX_KEYS // lw.size), 1))
    assert keys.size >= STABLE_ARGSORT_MAX_KEYS
    np.testing.assert_array_equal(stable_row_argsort(keys),
                                  np.argsort(keys, axis=1, kind="stable"))


# ---------------------------------------------------------------------------
# Cost-model integration: filter_round_cost derives workloads from the
# registered CostSigs (no hand-inlined formulas).
# ---------------------------------------------------------------------------

class TestCostIntegration:
    def test_every_kernel_prices_positive(self):
        cm = CostModel(get_platform("gtx-580"))
        params = CostParams(m=512, n_groups=64)
        for kdef in REG:
            assert cm.kernel_def_time(kdef, params) > 0.0

    def test_round_cost_kernels_match_registry_names(self):
        cost = filter_round_cost(get_platform("gtx-580"), 512, 64, 9)
        for key in cost.seconds:
            assert key in ("exchange", "resample") or key in REG

    def test_resampler_sigs_diverge(self):
        # rws pays a scan (barriers ~ 2 log2 m); metropolis is barrier-free
        # after staging; vose pays the worklist build.
        p = CostParams(m=512, n_groups=64, pool=516)
        rws = REG.workload("rws", p)
        met = REG.workload("metropolis", p)
        assert rws.syncs_per_group > met.syncs_per_group == 1

    def test_metropolis_selectable_in_round_cost(self):
        c = filter_round_cost(get_platform("gtx-580"), 512, 64, 9, resampler="metropolis")
        assert c.seconds["resample"] > 0

    def test_unknown_resampler_rejected(self):
        with pytest.raises(ValueError):
            filter_round_cost(get_platform("gtx-580"), 512, 64, 9, resampler="bogus")


# ---------------------------------------------------------------------------
# Engine integration: stages dispatch through the registry and the timing
# hook attributes per-kernel wall time on every backend.
# ---------------------------------------------------------------------------

def _run_small_filter(cls):
    from repro.core.parameters import DistributedFilterConfig
    from repro.models import RobotArmModel, RobotArmParams

    model = RobotArmModel(RobotArmParams(n_joints=2))
    cfg = DistributedFilterConfig(n_particles=8, n_filters=4, seed=3)
    f = cls(model, cfg)
    rng = np.random.default_rng(0)
    for _ in range(3):
        f.step(rng.normal(size=model.measurement_dim).astype(np.float64))
    return f


def test_vectorized_filter_reports_kernel_seconds():
    from repro.core.distributed import DistributedParticleFilter

    f = _run_small_filter(DistributedParticleFilter)
    assert f.kernel_seconds.get("sort", 0.0) > 0.0
    assert f.kernel_seconds.get("route_pairwise", 0.0) > 0.0


def test_sequential_filter_reports_kernel_seconds():
    from repro.backends.sequential import SequentialDistributedParticleFilter

    f = _run_small_filter(SequentialDistributedParticleFilter)
    assert f.kernel_seconds.get("sort", 0.0) > 0.0
