"""The host clock's speed factors, and timings restated with them."""

import numpy as np
import pytest

from hostspeed import BLOCK_S, PROBES, REPS, HostClock
from workloads import Sample, timings


def clock_with(at, multiples, kind="interpreter"):
    """A clock whose probes took *multiples* of the reference time at *at*."""
    clock = HostClock(kind)
    clock.at = list(at)
    clock.times = [m * clock.reference_s for m in multiples]
    return clock


def test_probe_records_its_fastest_repeat_and_all_its_cpu():
    for kind in PROBES:
        clock = HostClock(kind)
        clock.probe()
        clock.probe()
        assert len(clock.at) == len(clock.times) == 2
        assert 0 < max(clock.times) <= clock.cpu
        assert clock.cpu >= REPS * min(clock.times)


def test_factor_is_reference_over_the_block_median():
    # Block 0 holds probes of 1, 1 and an interrupted 5; block 1 runs at half
    # speed. Each block's median sits at the mean time of its probes.
    clock = clock_with([0.0, 0.1, 0.2, BLOCK_S, BLOCK_S + 0.1, BLOCK_S + 0.2],
                       [1, 1, 5, 2, 2, 2])
    f = clock.factors([0.1, BLOCK_S + 0.1, -5.0, BLOCK_S + 9.0])
    assert f == pytest.approx([1.0, 0.5, 1.0, 0.5])
    mid = clock.factors([(0.1 + BLOCK_S + 0.1) / 2])
    assert mid == pytest.approx([1 / 1.5])


def test_factors_need_a_probe():
    with pytest.raises(RuntimeError):
        HostClock("arrays").factors([0.0])


def _sample(factor, open_loop_wall=None):
    """Four rounds of 2 ms service, 3 ms latency and 10 steps each."""
    clock = clock_with([0.0], [1])
    s = Sample(4, clock)
    for i in range(4):
        s.add(float(i), 0.002, 0.003, steps=10)
    s.close()
    s.wall = open_loop_wall or s.wall
    s.cpu_own, s.cpu_kids = 0.006, 0.002
    s.factor_r = np.full(4, factor)
    return s


def test_timings_restate_every_round_time_and_the_cpu():
    s = _sample(0.5)
    raw, ref = timings(s, False, 1.0), timings(s, False, s.factor_r)
    assert raw["steps_per_s"] == pytest.approx(40 / 0.008)
    assert raw["step_p50_ms"] == pytest.approx(3.0)
    assert raw["cpu_ms_per_step"] == pytest.approx(1e3 * 0.008 / 40)
    for k in ("step_p50_ms", "step_p99_ms", "cpu_ms_per_step"):
        assert ref[k] == pytest.approx(0.5 * raw[k])
    assert ref["steps_per_s"] == pytest.approx(2 * raw["steps_per_s"])


def test_an_open_loop_rate_is_set_by_its_schedule():
    s = _sample(0.5, open_loop_wall=1.0)
    assert timings(s, True, s.factor_r)["steps_per_s"] == pytest.approx(40.0)
