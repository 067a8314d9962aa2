"""Tests for filter configuration (Tables I and II)."""

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from repro.core import (
    CentralizedFilterConfig,
    DEFAULT_CPU_CONFIG,
    DEFAULT_GPU_CONFIG,
    DistributedFilterConfig,
)
from repro.core.parameters import distributed_config_from_dict, distributed_config_to_dict

#: every string-enum field of DistributedFilterConfig and its accepted values.
ENUM_FIELDS = {
    "rng_streams": ("filter",),
    "exchange_select": ("best", "sample"),
    "selection": ("sort", "max"),
    "estimator": ("max_weight", "weighted_mean"),
    "resample_policy": ("always", "ess", "frequency"),
    "allocation": ("fixed", "ess", "mass"),
    "execution": ("reference", "compiled"),
    "dtype_policy": ("mixed", "float32", "float64"),
}


def test_table2_gpu_defaults():
    cfg = DEFAULT_GPU_CONFIG
    assert cfg.n_particles == 512
    assert cfg.n_filters == 1024
    assert cfg.topology == "ring"
    assert cfg.n_exchange == 1
    assert np.dtype(cfg.dtype) == np.float32  # single precision on device


def test_table2_cpu_defaults():
    assert DEFAULT_CPU_CONFIG.n_particles == 64
    assert DEFAULT_CPU_CONFIG.n_filters == 1024


def test_total_particles():
    assert DistributedFilterConfig(n_particles=8, n_filters=4).total_particles == 32


def test_with_creates_modified_copy():
    base = DistributedFilterConfig(n_particles=8, n_filters=4)
    mod = base.with_(n_filters=16)
    assert mod.n_filters == 16 and base.n_filters == 4
    assert mod.n_particles == 8


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_particles=0),
        dict(n_filters=-1),
        dict(n_exchange=-1),
        dict(n_particles=4, n_exchange=5),
        dict(estimator="median"),
        dict(exchange_select="worst"),
        dict(selection="heap"),
        dict(resample_policy="sometimes"),
        dict(dtype=np.int32),
    ],
)
def test_distributed_validation(kwargs):
    with pytest.raises((ValueError, TypeError)):
        DistributedFilterConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [dict(n_particles=0), dict(estimator="mode"), dict(resample_policy="never"), dict(dtype="int8")],
)
def test_centralized_validation(kwargs):
    with pytest.raises((ValueError, TypeError)):
        CentralizedFilterConfig(**kwargs)


def test_configs_are_frozen():
    cfg = DistributedFilterConfig()
    with pytest.raises(Exception):
        cfg.n_particles = 3


@given(field=st.sampled_from(sorted(ENUM_FIELDS)), value=st.text())
@example(field="rng_streams", value="worker")
def test_enum_field_rejects_any_other_text(field, value):
    assume(value not in ENUM_FIELDS[field])
    with pytest.raises(ValueError, match=field):
        DistributedFilterConfig(**{field: value})
    record = distributed_config_to_dict(DistributedFilterConfig())
    record[field] = value
    with pytest.raises(ValueError, match=field):
        distributed_config_from_dict(record)
