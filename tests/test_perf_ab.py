"""The A/B gauge's statistics, on fixed numbers: no worker process is started."""

import importlib.util
import json
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


@pytest.mark.parametrize("k", range(4))
def test_every_tree_runs_twice_a_block_centred_on_the_base(k):
    order = ab.block_order(k)
    assert order[0] == order[-1] == "base"
    positions = {name: [i for i, n in enumerate(order) if n == name] for name in set(order)}
    assert sorted(positions) == ["base", "change", "control"]
    # the same mean position: a drift linear in time cancels in both ratios
    assert {sum(p) for p in positions.values()} == {5} and {len(p) for p in positions.values()} == {2}


def test_the_change_and_the_control_swap_places_from_block_to_block():
    assert ab.block_order(0) == ("base", "change", "control", "control", "change", "base")
    assert ab.block_order(1) == ("base", "control", "change", "change", "control", "base")
    assert ab.block_order(2) == ab.block_order(0)


def test_the_control_ratio_is_read_like_the_change_ratio():
    base = [(1.0, 1.0), (2.0, 2.0)]
    control = [(1.0, 1.0), (2.0, 2.2)]
    s = ab.summary(ab.block_ratios(base, control))
    assert s["median_ratio"] == pytest.approx(1.025) and s["won"] == 0 and s["blocks"] == 2


@pytest.mark.parametrize("interval, want", [
    ([0.97, 1.03], True),
    ([1.0, 1.0], True),  # a point interval at 1.0 holds it
    ([1.012, 1.075], False),  # an A/A control of identical trees that read 1.048
    ([0.93, 0.99], False),
])
def test_a_run_is_resolved_only_if_the_control_interval_holds_one(interval, want):
    assert ab.resolved({"median_ratio": sum(interval) / 2, "interval": interval}) is want


def test_a_biased_control_leaves_the_run_unresolved():
    base = [(1.0, 1.0)] * 4
    control = [(1.05, 1.05), (1.04, 1.04), (1.06, 1.06), (1.05, 1.05)]
    assert not ab.resolved(ab.summary(ab.block_ratios(base, control)))
    assert ab.resolved(ab.summary(ab.block_ratios(base, base)))


@pytest.mark.parametrize("control_interval, unresolved", [([0.97, 1.03], False), ([1.012, 1.075], True)])
def test_the_summary_says_when_the_run_is_unresolved(monkeypatch, capsys, control_interval, unresolved):
    control = {"median_ratio": 1.048, "interval": control_interval, "won": 5, "blocks": 24}
    result = {"base": "0" * 40, "workload": "functor", "seed": 1, "items": 220, "median_ratio": 0.99,
              "interval": [0.97, 1.01], "won": 13, "blocks": 24, "differing_reports": 0,
              "control": control, "resolved": ab.resolved(control)}
    monkeypatch.setattr(ab, "compare", lambda args: result)
    monkeypatch.setattr(ab.signal, "signal", lambda *args: None)  # keep pytest's SIGTERM handler
    assert ab.main(["--workload", "functor", "--blocks", "24"]) == 0  # unresolved still exits 0
    line, doc = capsys.readouterr().out.splitlines()
    assert line.endswith("; unresolved: the A/A interval excludes 1.0") is unresolved
    assert json.loads(doc)["resolved"] is not unresolved
