"""Alternating A/B runs of one benchmark workload on two git revisions.

    python3 experiments/ab.py BASE CHANGE --workload desk_ep --seeds 0,7 \\
        --pairs 10 --seconds 25 --out AB_12.json

Each revision is cloned from this repository into its own scratch
directory, so both trees are fresh clones that differ only in their code.
For each seed, pair i runs ``perfbench/run.py --trace 0`` once in each
tree, the base first in even pairs and the change first in odd ones, so a
slow spell of the host falls on both sides alike. The output file holds
both commits and their ``src`` tree hashes, every reading of every
end-to-end metric (``host_ref_s`` among them), and for each metric that
``BENCHMARK.json`` gates: the change's wins out of the pairs, the median
gap (the change's median minus the base's), each side's quartiles,
whether the change clears the claim rule (better in at least nine of ten
pairs, and a median gap beyond the base's quartile distance), and the
no-regression verdict against the metric's ``bound`` (``summarize``).
Comparing a revision with itself is an A/A control: it shows how far two
trees of the same code read apart.

Standard library only; the clones are removed when the runs end.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] by the inclusive method (one value: itself thrice)."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Pairwise wins of ``change`` over ``base`` (readings of one metric,
    pair by pair), the median gap and both sides' quartiles. ``better`` is
    "lower" or "higher". The change clears the claim rule when it is better
    in at least 90% of the pairs and its median is better than the base's
    by more than the base's interquartile distance.

    Against the metric's relative no-regression ``bound``, the verdict is
    "unresolved" when the base's interquartile distance is wider than the
    bound (relative to the base's median) and not every change run beats
    every base run; otherwise "within_bound" when the change's median is
    worse than the base's by at most the bound, and "worse_than_bound" when
    it is worse by more."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    qb, qc = quartiles(base), quartiles(change)
    gap = qc[1] - qb[1]
    limit = bound * abs(qb[1])
    if qb[2] - qb[0] > limit and not all(sign * (b - c) > 0 for b in base for c in change):
        verdict = "unresolved"
    else:
        verdict = "within_bound" if sign * gap <= limit else "worse_than_bound"
    return {
        "wins": wins,
        "pairs": len(base),
        "median_gap": gap,
        "relative_gap": gap / qb[1] if qb[1] else None,
        "base_quartiles": qb,
        "change_quartiles": qc,
        "clears": wins >= 0.9 * len(base) and -sign * gap > qb[2] - qb[0],
        "verdict": verdict,
    }


def run_pairs(runner, pairs: int) -> list[dict]:
    """``pairs`` alternating pairs of ``runner(side)`` calls, the base first
    in even pairs; each reading is what the runner returned."""
    readings = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        reading = {"pair": i, "first": order[0]}
        for side in order:
            reading[side] = runner(side)
        readings.append(reading)
    return readings


def column(readings: list[dict], side: str, name: str) -> list[float]:
    """One side's readings of one metric, pair by pair."""
    return [r[side][name] for r in readings]


def perfbench_reading(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """Every end-to-end metric of one untraced perfbench run in ``tree``,
    with its operation counts."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    detail = next(line for line in reversed(lines) if line.startswith("detail: "))
    detail = json.loads(detail[len("detail: "):])
    reading = {name: d["value"] for name, d in detail["end_to_end"].items()}
    reading.update(attempted=detail["attempted"], failed=detail["failed"])
    return reading


def clone(rev: str, dest: Path) -> dict:
    """Clone this repository into ``dest`` at ``rev``; the commit and the
    hash of its ``src`` tree."""
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(dest)], check=True)
    subprocess.run(["git", "-C", str(dest), "checkout", "--quiet", rev], check=True)

    def parse(spec):
        return subprocess.run(["git", "-C", str(dest), "rev-parse", spec], check=True,
                              capture_output=True, text=True).stdout.strip()

    return {"rev": rev, "commit": parse("HEAD"), "src_tree": parse("HEAD:src")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0", help="comma-separated, for example 0,7")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--scratch", type=Path, help="parent of the clones (default: a temp dir)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    scratch = Path(tempfile.mkdtemp(prefix="ab-", dir=args.scratch))
    try:
        trees = {side: scratch / side for side in SIDES}
        revs = {side: clone(rev, trees[side])
                for side, rev in zip(SIDES, (args.base, args.change))}
        spec = json.loads((trees["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        runs = []
        result = {"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
                  "base": revs["base"], "change": revs["change"], "runs": runs}
        for seed in seeds:
            readings = run_pairs(
                lambda side: perfbench_reading(trees[side], args.workload, seed, args.seconds),
                args.pairs,
            )
            summary = {m["name"]: summarize(column(readings, "base", m["name"]),
                                            column(readings, "change", m["name"]), m["better"],
                                            m["bound"])
                       for m in spec["end_to_end"]}
            summary["host_ref_s"] = {side: quartiles(column(readings, side, "host_ref_s"))
                                     for side in SIDES}
            runs.append({"seed": seed, "summary": summary, "readings": readings})
            # written after every seed, so a later failure keeps the finished seeds
            args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
            for name in (m["name"] for m in spec["end_to_end"]):
                s = summary[name]
                print(f"seed {seed} {name}: base {s['base_quartiles'][1]:.4g} -> change "
                      f"{s['change_quartiles'][1]:.4g}, wins {s['wins']}/{s['pairs']}, "
                      f"clears {s['clears']}, {s['verdict']}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
