"""Verdict rules of compare.py on synthetic pairs."""

import json

from compare import MIN_PAIRS, main, verdict


def runs(center, n=MIN_PAIRS, step=0.1):
    return [center + step * i for i in range(n)]


def test_clear_gain_is_improved():
    v, share = verdict(runs(100), runs(110), "higher", 0.1)
    assert (v, share) == ("improved", 1.0)


def test_lower_is_better_gain():
    assert verdict(runs(10), runs(8), "lower", 0.1)[0] == "improved"


def test_gain_needs_enough_pairs():
    v, _ = verdict(runs(100, n=MIN_PAIRS - 1), runs(110, n=MIN_PAIRS - 1),
                   "higher", 0.1)
    assert v == "no worse"


def test_gain_needs_nine_tenths_of_pairs():
    parent = runs(100)
    change = runs(110)
    change[0] = change[1] = 90.0  # two pairs lost
    assert verdict(parent, change, "higher", 0.1)[0] != "improved"


def test_worse_beyond_bound_is_regressed():
    assert verdict(runs(100), runs(80), "higher", 0.1)[0] == "regressed"


def test_worse_within_bound_is_no_worse():
    assert verdict(runs(100), runs(97), "higher", 0.1)[0] == "no worse"


def test_spread_wider_than_bound_is_unresolved():
    parent = runs(100, step=10)
    change = runs(90, step=10)
    assert verdict(parent, change, "higher", 0.1)[0] == "unresolved"


def test_every_change_run_better_resolves_a_wide_spread():
    parent = runs(100, n=5, step=1)
    change = runs(104.5, n=5, step=1)
    assert verdict(parent, change, "higher", 0.01)[0] == "no worse"


def test_worse_and_noisier_change_is_regressed():
    # Parent p99 about 10 ms with a 13% IQR; the change triples it and
    # widens its own IQR to a third.
    parent = [9.0, 9.2, 9.4, 9.6, 9.8, 10.2, 10.4, 10.6, 10.8, 11.0]
    change = [20.0, 23.0, 26.0, 28.0, 29.0, 31.0, 32.0, 34.0, 37.0, 40.0]
    assert verdict(parent, change, "lower", 0.1)[0] == "regressed"


# Half the parent runs near 100, half near 118: its IQR is 15% of the median.
WIDE = [100.0, 101.0, 102.0, 103.0, 104.0, 116.0, 117.0, 118.0, 119.0, 120.0]


def test_every_change_run_worse_beyond_bound_is_regressed():
    # The gap is beyond the bound but inside the parent's wide IQR.
    change = runs(95, step=0.5)
    assert verdict(WIDE, change, "higher", 0.1)[0] == "regressed"


def test_every_change_run_worse_within_bound_is_no_worse():
    change = runs(99)
    assert verdict(WIDE, change, "higher", 0.1)[0] == "no worse"


def test_change_spread_alone_is_not_unresolved():
    change = [80.0, 85.0, 90.0, 95.0, 100.0, 101.0, 105.0, 110.0, 115.0, 120.0]
    assert verdict(runs(100), change, "higher", 0.1)[0] == "no worse"


def test_paired_metric_compares_same_seed_pairs():
    parent = [0.20, 0.22, 0.24, 0.21, 0.23, 0.25, 0.20, 0.22, 0.24, 0.26]
    same = verdict(parent, list(parent), "lower", 0.02, paired=True)
    assert same == ("no worse", 0.0)
    slight = [p * 1.01 for p in parent]
    assert verdict(parent, slight, "lower", 0.02, paired=True)[0] == "no worse"
    worse = [p * 1.03 for p in parent]
    assert verdict(parent, worse, "lower", 0.02, paired=True)[0] == "regressed"


def test_pairs_must_share_a_seed(tmp_path):
    paths = []
    for side, seed in (("parent", 1), ("change", 2)):
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps({"seed": seed, "workloads": {}}))
        paths.append(str(path))
    assert main(paths) == 2
