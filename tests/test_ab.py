"""The A/B tool's statistics, alternation order and output layout, on fixed
inputs and stub runners; nothing here clones a tree or runs the benchmark."""

import importlib.util
import json
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


def test_a_gain_clears_only_from_ten_pairs():
    base = [1.0, 1.1, 0.9, 1.2, 1.0, 1.05, 0.95, 1.0, 1.1, 1.0]
    change = [b - 0.5 for b in base]
    nine = ab.summarize(base[:9], change[:9], "lower", 0.25)
    assert nine["wins"] == 9 and not nine["clears"]
    assert ab.summarize(base, change, "lower", 0.25)["clears"]


def stub_clone(rev, dest):
    dest.mkdir(parents=True)
    (dest / "BENCHMARK.json").write_bytes((ab.ROOT / "BENCHMARK.json").read_bytes())
    return {"rev": rev, "commit": f"commit-{rev}", "src_tree": f"tree-{rev}"}


def test_main_runs_workload_seeds_through_one_flow(tmp_path, monkeypatch):
    out = tmp_path / "ab.json"
    calls = []

    def reading(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        if seed == 7:  # the finished seed is on disk before the next one runs
            assert [r["seed"] for r in json.loads(out.read_text())["runs"]] == [0]
        value = 1.0 if tree.name == "base" else 0.5
        return {"setup_s": value, "pass_s": value, "peak_rss_mb": value, "host_ref_s": 0.25,
                "attempted": 3, "failed": 0}

    monkeypatch.setattr(ab, "clone", stub_clone)
    monkeypatch.setattr(ab, "perfbench_reading", reading)
    assert ab.main(["A", "B", "--workload", "desk_ep", "--seeds", "0,7", "--pairs", "2",
                    "--out", str(out), "--scratch", str(tmp_path)]) == 0
    result = json.loads(out.read_text())
    spec = json.loads((ab.ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"workload", "seconds", "pairs", "base", "change", "runs"}
    assert result["seconds"] == spec["run_seconds"] and result["change"]["commit"] == "commit-B"
    assert [r["seed"] for r in result["runs"]] == [0, 7]
    assert calls[:2] == [("base", "desk_ep", 0, spec["run_seconds"]),
                         ("change", "desk_ep", 0, spec["run_seconds"])]
    assert len(calls) == 8
    gated = {m["name"] for m in spec["end_to_end"]}
    for run in result["runs"]:
        assert set(run) == {"seed", "summary", "readings"} and len(run["readings"]) == 2
        assert set(run["summary"]) == gated | {"host_ref_s"}
        assert run["summary"]["pass_s"]["wins"] == 2 and not run["summary"]["pass_s"]["clears"]
        assert run["summary"]["host_ref_s"] == {"base": [0.25] * 3, "change": [0.25] * 3}
    assert list(tmp_path.glob("ab-*")) == []


def test_main_runs_cli_pairs_through_the_same_flow(tmp_path, monkeypatch):
    out = tmp_path / "ab.json"
    calls = []

    def reading(tree, argv, path):
        calls.append((tree.name, argv, path))
        return {"wall_s": 1.0, "cpu_s": 1.0, "minor_faults": 10, "max_rss_mb": 40.0,
                "sha256": "same"}

    monkeypatch.setattr(ab, "clone", stub_clone)
    monkeypatch.setattr(ab, "cli_reading", reading)
    assert ab.main(["A", "B", "--cli", "pretrain --data {data} --out {out}", "--pairs", "3",
                    "--out", str(out), "--scratch", str(tmp_path)]) == 0
    result = json.loads(out.read_text())
    assert set(result) == {"cli", "pairs", "base", "change", "runs"}
    [run] = result["runs"]
    assert run["seed"] is None and len(run["readings"]) == 3
    assert set(run["summary"]) == set(ab.CLI_METRICS)
    assert run["summary"]["wall_s"]["verdict"] == "within_bound"
    gen, *runs = calls
    assert gen[0] == "base" and gen[1][0] == "gen" and gen[2] is None
    assert [c[0] for c in runs] == ["base", "change", "change", "base", "base", "change"]
    data = gen[1][2]
    assert all(c[1] == ["pretrain", "--data", data, "--out", str(c[2])] for c in runs)
    assert len({c[2] for c in runs}) == 6
