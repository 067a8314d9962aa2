"""Tests for the fused execution form: envelope gating, bit-parity with the
reference pipeline, and the per-round fallback on unhealthy populations."""

import numpy as np
import pytest

from repro.core.distributed import DistributedParticleFilter
from repro.core.parameters import DistributedFilterConfig
from repro.engine.fused import fused_envelope_ok, fused_pipeline_applicable
from repro.models.base import StateSpaceModel
from repro.prng.streams import make_rng
from tests.speed import best_block_seconds


class ScalarAR1(StateSpaceModel):
    """Minimal 1-d AR(1) + Gaussian likelihood, vectorized over any batch."""

    state_dim = 1
    measurement_dim = 1

    def __init__(self, a=0.9, q=0.3, r=0.4):
        self.a, self.q, self.r = a, q, r

    def initial_particles(self, n, rng, dtype=np.float64):
        return rng.normal((n, 1)).astype(dtype, copy=False)

    def initial_state(self, rng):
        return rng.normal((1,))

    def transition(self, states, control, k, rng):
        return self.a * states + self.q * rng.normal(states.shape).astype(
            states.dtype, copy=False)

    def log_likelihood(self, states, measurement, k):
        diff = states[..., 0] - measurement[0]
        return -0.5 * (diff / self.r) ** 2

    def observe(self, state, k, rng):
        return state[:1] + self.r * rng.normal((1,))


class PoisonedAR1(ScalarAR1):
    """Emits an all--inf likelihood at step ``poison_k`` (degenerate round)."""

    def __init__(self, poison_k=3, **kw):
        super().__init__(**kw)
        self.poison_k = poison_k

    def log_likelihood(self, states, measurement, k):
        out = super().log_likelihood(states, measurement, k)
        if k == self.poison_k:
            out = np.full_like(out, -np.inf)
        return out


def run_filter(model, execution, dtype_policy="mixed", steps=8, **cfg_kw):
    cfg_kw.setdefault("topology", "ring")
    cfg_kw.setdefault("n_exchange", 1)
    cfg = DistributedFilterConfig(
        n_filters=8, n_particles=16, seed=11,
        execution=execution, dtype_policy=dtype_policy, **cfg_kw)
    pf = DistributedParticleFilter(model, cfg)
    truth = model.simulate(steps, rng=make_rng("philox", 5))
    estimates = np.array([pf.step(z) for z in truth.measurements])
    return pf, estimates


class TestEnvelope:
    def test_default_config_is_inside_the_envelope(self):
        assert fused_envelope_ok(DistributedFilterConfig())

    @pytest.mark.parametrize("kw", [
        {"roughening": 0.1},
        {"frim_redraws": 2},
        {"resample_policy": "ess", "resample_arg": 0.5},
        {"estimator": "weighted_mean"},
        {"resampler": "systematic"},
        {"allocation": "mass"},
    ])
    def test_off_envelope_configs_are_rejected(self, kw):
        assert not fused_envelope_ok(DistributedFilterConfig(**kw))

    def test_reference_execution_never_fuses(self):
        pf, _ = run_filter(ScalarAR1(), "reference", steps=1)
        assert not fused_pipeline_applicable(pf)
        assert "fused" not in pf.pipeline.stage_names

    def test_compiled_execution_fuses_inside_envelope(self):
        pf, _ = run_filter(ScalarAR1(), "compiled", steps=1)
        assert fused_pipeline_applicable(pf)
        assert pf.pipeline.stage_names == ("fused",)

    def test_compiled_execution_off_envelope_runs_reference_stages(self):
        pf, _ = run_filter(ScalarAR1(), "compiled", steps=1, roughening=0.1)
        assert "fused" not in pf.pipeline.stage_names

    def test_subclass_kernel_override_disables_fusion(self):
        class Variant(DistributedParticleFilter):
            def _resample(self, pooled_states, pooled_logw):
                super()._resample(pooled_states, pooled_logw)

        cfg = DistributedFilterConfig(n_filters=4, n_particles=8,
                                      execution="compiled")
        pf = Variant(ScalarAR1(), cfg)
        assert not fused_pipeline_applicable(pf)
        assert "fused" not in pf.pipeline.stage_names


class TestBitParity:
    @pytest.mark.parametrize("dtype_policy", ["mixed", "float32", "float64"])
    @pytest.mark.parametrize("topology", ["ring", "all_to_all", "none"])
    def test_fused_matches_reference_bitwise(self, topology, dtype_policy):
        kw = {"topology": topology}
        ref, ref_est = run_filter(ScalarAR1(), "reference", dtype_policy, **kw)
        fus, fus_est = run_filter(ScalarAR1(), "compiled", dtype_policy, **kw)
        assert fus.pipeline.stage_names == ("fused",)
        assert np.array_equal(ref_est, fus_est)
        assert np.array_equal(ref.states, fus.states)
        assert np.array_equal(ref.log_weights, fus.log_weights)
        assert ref.states.dtype == fus.states.dtype

    def test_exchange_width_zero_matches(self):
        ref, ref_est = run_filter(ScalarAR1(), "reference", n_exchange=0)
        fus, fus_est = run_filter(ScalarAR1(), "compiled", n_exchange=0)
        assert np.array_equal(ref_est, fus_est)
        assert np.array_equal(ref.states, fus.states)


class TestDegenerateFallback:
    def test_poisoned_round_falls_back_and_stays_bit_identical(self):
        # Step 3 zeroes every likelihood: the fused body's health guard must
        # hand that round to the reference kernel sequence (heal + rescue),
        # and the whole trace — including the rounds after — must still
        # match the reference pipeline bitwise.
        model = PoisonedAR1(poison_k=3)
        ref, ref_est = run_filter(model, "reference", steps=7)
        fus, fus_est = run_filter(model, "compiled", steps=7)
        assert fus.pipeline.stage_names == ("fused",)
        assert np.array_equal(ref_est, fus_est)
        assert np.array_equal(ref.states, fus.states)
        assert np.array_equal(ref.log_weights, fus.log_weights)
        assert fus.heal_counters == ref.heal_counters
        assert sum(fus.heal_counters.values()) > 0


#: Accuracy budget for float32 states: the compiled/float32 estimate
#: trajectory's RMSE against the simulated truth may exceed the
#: reference/float64 one's by this factor, plus an absolute floor for
#: near-zero RMSEs. A per-step bound would be meaningless under the
#: max_weight estimator: a float32 rounding difference can flip which
#: particle wins the argmax, moving the estimate by the particle spread
#: while tracking accuracy is unchanged.
FLOAT32_RMSE_BUDGET = 1.25
FLOAT32_RMSE_FLOOR = 0.05


def ar1_filter(n_filters, execution, dtype_policy):
    """The paper-default round (ring, t=1) at m=8: the fused form's envelope."""
    return DistributedParticleFilter(ScalarAR1(), DistributedFilterConfig(
        n_filters=n_filters, n_particles=8, topology="ring", n_exchange=1,
        seed=42, execution=execution, dtype_policy=dtype_policy))


class TestFloat32Accuracy:
    @pytest.mark.parametrize("n_filters", [8, 16])
    def test_float32_rmse_within_budget_of_float64(self, n_filters):
        truth = ScalarAR1().simulate(60, rng=make_rng("numpy", 7))

        def rmse(execution, dtype_policy):
            pf = ar1_filter(n_filters, execution, dtype_policy)
            est = np.array([pf.step(z) for z in truth.measurements])
            return float(np.sqrt(((est[:, 0] - truth.states[:, 0]) ** 2).mean()))

        rmse64 = rmse("reference", "float64")
        rmse32 = rmse("compiled", "float32")
        assert rmse32 <= rmse64 * FLOAT32_RMSE_BUDGET + FLOAT32_RMSE_FLOOR


class TestSpeedDirection:
    @pytest.mark.parametrize("n_filters", [8, 16])
    def test_compiled_float32_beats_reference_float64(self, n_filters):
        # At these interpreter-bound shapes the fused round runs several
        # times faster; the bound is only the direction.
        meas = ScalarAR1().simulate(70, rng=make_rng("numpy", 7)).measurements
        legs = {
            "reference": ar1_filter(n_filters, "reference", "float64"),
            "compiled": ar1_filter(n_filters, "compiled", "float32"),
        }
        assert legs["compiled"].pipeline.stage_names == ("fused",)
        best = best_block_seconds(
            {name: (lambda k, pf=pf: pf.step(meas[k])) for name, pf in legs.items()},
            warmup=10, block=20)
        ratio = best["reference"] / best["compiled"]
        assert ratio > 1.0, f"compiled/float32 ran {ratio:.2f}x reference/float64"
