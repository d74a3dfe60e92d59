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
    s = ab.summarize(BASE, CHANGE, "lower", 0.25)
    assert s["wins"] == 4 and s["pairs"] == 5
    assert s["median_gap"] == pytest.approx(-0.15)
    assert s["relative_gap"] == pytest.approx(-0.15)
    assert s["base_quartiles"] == pytest.approx([1.0, 1.0, 1.1])
    assert s["change_quartiles"] == pytest.approx([0.8, 0.85, 0.9])
    assert not s["clears"]  # 4 of 5 wins is below 90%


def test_summary_clears_only_past_the_base_spread():
    base = [1.0, 1.1, 0.9, 1.2, 1.0, 1.05, 0.95, 1.0, 1.1, 1.0]
    assert ab.summarize(base, [b - 0.2 for b in base], "lower", 0.25)["clears"]
    # better in every pair, but by less than the base's quartile distance
    assert not ab.summarize(base, [b - 0.05 for b in base], "lower", 0.25)["clears"]
    # a higher-is-better metric wins where the change reads higher
    up = ab.summarize(base, [b + 0.2 for b in base], "higher", 0.25)
    assert up["wins"] == 10 and up["clears"]
    assert ab.summarize(base, [b + 0.2 for b in base], "lower", 0.25)["wins"] == 0


# quartiles 1.0 / 1.0 / 1.0875: a spread of 8.75%
STEADY = [1.0, 1.1, 0.9, 1.2, 1.0, 1.05, 0.95, 1.0, 1.1, 1.0]
# quartiles 0.8 / 1.0 / 1.2: a spread of 40%
NOISY = [0.6, 1.0, 1.4, 0.8, 1.2, 1.0, 0.8, 1.2, 1.0, 1.0]
# quartiles 99.625 / 100 / 100.375: a spread of 0.75%
HIGH = [100.0, 101.0, 99.0, 100.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0]


@pytest.mark.parametrize("base, change, better, bound, verdict", [
    (STEADY, [b + 0.2 for b in STEADY], "lower", 0.25, "within_bound"),
    (STEADY, [b + 0.3 for b in STEADY], "lower", 0.25, "worse_than_bound"),
    (STEADY, [b - 0.3 for b in STEADY], "lower", 0.25, "within_bound"),
    (NOISY, [b + 0.01 for b in NOISY], "lower", 0.25, "unresolved"),
    (NOISY, [b - 0.01 for b in NOISY], "lower", 0.25, "unresolved"),
    (NOISY, [0.5] * 10, "lower", 0.25, "within_bound"),  # beats every base run
    (NOISY, [3.0] * 10, "lower", 0.25, "unresolved"),
    (HIGH, [b - 4.0 for b in HIGH], "higher", 0.05, "within_bound"),
    (HIGH, [b - 6.0 for b in HIGH], "higher", 0.05, "worse_than_bound"),
    (HIGH, [b + 0.1 for b in HIGH], "higher", 0.005, "unresolved"),
    (HIGH, [102.0] * 10, "higher", 0.005, "within_bound"),
    (NOISY, [b + 0.01 for b in NOISY], "higher", 0.5, "within_bound"),
], ids=["lower-in", "lower-out", "lower-better", "noisy-worse", "noisy-better",
        "noisy-separated", "noisy-far-worse", "higher-in", "higher-out",
        "higher-spread", "higher-separated", "noisy-within-wide-bound"])
def test_verdict_against_the_bound(base, change, better, bound, verdict):
    assert ab.summarize(base, change, better, bound)["verdict"] == verdict


def test_ties_are_not_wins():
    assert ab.summarize([1.0, 2.0], [1.0, 2.0], "lower", 0.25)["wins"] == 0


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


def test_cli_reading_takes_the_childs_rusage_and_hashes_its_output(tmp_path):
    out = tmp_path / "scenes" / "scene_000.epcc"
    reading = ab.cli_reading(ab.ROOT, ["gen", "--out", str(tmp_path / "scenes"),
                                       "--scenes", "1"], out)
    assert set(reading) == set(ab.CLI_METRICS) | {"sha256"}
    assert len(reading["sha256"]) == 64 and not out.exists()
    assert reading["wall_s"] > 0 and reading["minor_faults"] > 0 and reading["max_rss_mb"] > 1
    with pytest.raises(RuntimeError, match="exited with 1"):
        ab.cli_reading(ab.ROOT, ["gen", "--out", str(tmp_path / "x"), "--scenes", "0"], None)
