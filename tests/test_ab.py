"""The A/B tool's statistics and alternation order, on fixed inputs and a
stub runner; nothing here runs the benchmark."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "experiments" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BASE = [1.00, 1.10, 0.90, 1.20, 1.00]
CHANGE = [0.80, 0.90, 0.85, 1.30, 0.70]


def test_quartiles_are_inclusive():
    assert ab.quartiles(BASE) == pytest.approx([1.0, 1.0, 1.1])
    assert ab.quartiles([0.8, 0.9, 0.85, 1.3, 0.7]) == pytest.approx([0.8, 0.85, 0.9])
    assert ab.quartiles([2.0]) == [2.0, 2.0, 2.0]


def test_summary_counts_wins_and_the_median_gap():
    s = ab.summarize(BASE, CHANGE, "lower")
    assert s["wins"] == 4 and s["pairs"] == 5
    assert s["median_gap"] == pytest.approx(-0.15)
    assert s["relative_gap"] == pytest.approx(-0.15)
    assert s["base_quartiles"] == pytest.approx([1.0, 1.0, 1.1])
    assert s["change_quartiles"] == pytest.approx([0.8, 0.85, 0.9])
    assert not s["clears"]  # 4 of 5 wins is below 90%


def test_summary_clears_only_past_the_base_spread():
    base = [1.0, 1.1, 0.9, 1.2, 1.0, 1.05, 0.95, 1.0, 1.1, 1.0]
    assert ab.summarize(base, [b - 0.2 for b in base], "lower")["clears"]
    # better in every pair, but by less than the base's quartile distance
    assert not ab.summarize(base, [b - 0.05 for b in base], "lower")["clears"]
    # a higher-is-better metric wins where the change reads higher
    up = ab.summarize(base, [b + 0.2 for b in base], "higher")
    assert up["wins"] == 10 and up["clears"]
    assert ab.summarize(base, [b + 0.2 for b in base], "lower")["wins"] == 0


def test_ties_are_not_wins():
    assert ab.summarize([1.0, 2.0], [1.0, 2.0], "lower")["wins"] == 0


def test_pairs_alternate_which_tree_runs_first():
    calls = []

    def runner(side):
        calls.append(side)
        return {"pass_s": len(calls)}

    readings = ab.run_pairs(runner, 4)
    assert calls == ["base", "change", "change", "base"] * 2
    assert [r["first"] for r in readings] == ["base", "change"] * 2
    assert [(r["base"]["pass_s"], r["change"]["pass_s"]) for r in readings] == [
        (1, 2), (4, 3), (5, 6), (8, 7)
    ]
    assert ab.column(readings, "change", "pass_s") == [2, 3, 6, 7]
