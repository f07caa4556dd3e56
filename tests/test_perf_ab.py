"""The A/B gauge's statistics, on fixed numbers: no worker process is started."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "perf" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_block_ratio_is_the_change_over_the_base_per_block():
    base = [(1.0, 3.0), (2.0, 2.0), (0.5, 0.5)]
    change = [(1.0, 1.0), (2.0, 2.0), (0.75, 0.75)]
    assert ab.block_ratios(base, change) == [0.5, 1.0, 1.5]


def test_block_ratios_need_one_change_block_per_base_block():
    with pytest.raises(ValueError):
        ab.block_ratios([(1.0, 1.0)], [(1.0, 1.0), (1.0, 1.0)])


def test_constant_ratios_give_a_point_interval():
    assert ab.bootstrap_interval([0.9] * 7) == (0.9, 0.9)


def test_interval_brackets_the_median_and_repeats():
    ratios = [0.86, 0.91, 0.88, 0.95, 0.9, 1.02, 0.87, 0.89, 0.93]
    lo, hi = ab.bootstrap_interval(ratios)
    assert min(ratios) <= lo <= 0.9 <= hi <= max(ratios)
    assert hi < 1.0  # nine blocks, one lost: the change is faster
    assert ab.bootstrap_interval(ratios) == (lo, hi)  # a fixed seed repeats


def test_interval_narrows_with_more_blocks():
    ratios = [0.9 + 0.01 * k for k in range(-5, 6)]
    lo, hi = ab.bootstrap_interval(ratios)
    wide = hi - lo
    lo, hi = ab.bootstrap_interval(ratios * 8)
    assert lo <= 0.9 <= hi
    assert 0 < hi - lo < wide / 2


def test_two_blocks_bound_the_interval_by_their_ratios():
    assert ab.bootstrap_interval([0.8, 1.1]) == (0.8, 1.1)


def test_summary_counts_the_blocks_the_change_won():
    s = ab.summary([0.9, 1.0, 1.1, 0.95, 0.7])
    assert s["median_ratio"] == 0.95
    assert s["won"] == 3  # a tie is not a win
    assert s["blocks"] == 5
    assert s["interval"][0] <= 0.95 <= s["interval"][1]
