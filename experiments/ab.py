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

With ``--cli "ARGS"`` the pairs run the ``epcontrast`` command itself
(``cli.main``) in each tree instead, under one BLAS thread and with no
GLIBC_TUNABLES, so each side runs under whatever allocator settings its
own code makes:

    python3 experiments/ab.py BASE CHANGE --pairs 6 --out AB_16_cli.json \
        --cli "pretrain --data {data} --out {out} --loss ep \
               --set kmeans.segments=32 --set train.epochs=2"

``{data}`` stands for a directory of 32 desk scenes that the base tree's
``gen`` writes once, and ``{out}`` for a fresh file per run, whose sha256
is recorded. Each run reads its wall and CPU seconds, minor page faults
and max RSS from the rusage of the child (``os.wait4``: the figures that
``getrusage(RUSAGE_CHILDREN)`` sums over children), and each is
summarized as above against the bound of ``pass_s`` (times and faults)
or ``peak_rss_mb`` (RSS).

Standard library only; the clones are removed when the runs end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
# each --cli reading and the gated metric whose bound it takes
CLI_METRICS = {"wall_s": "pass_s", "cpu_s": "pass_s", "minor_faults": "pass_s",
               "max_rss_mb": "peak_rss_mb"}


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


def cli_reading(tree: Path, argv: list[str], out: Path | None) -> dict:
    """One ``epcontrast`` run through ``cli.main`` in ``tree``: its
    :data:`CLI_METRICS` from the child's rusage, and the sha256 of ``out``
    when the run wrote it."""
    env = {k: v for k, v in os.environ.items() if k != "GLIBC_TUNABLES"}
    env.update(PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-c", "from epcontrast.cli import main; main()", *argv]
    start = time.perf_counter()
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace"))
            raise RuntimeError(f"{shlex.join(cmd)} in {tree} exited with {proc.returncode}")
    reading = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
               "minor_faults": usage.ru_minflt, "max_rss_mb": usage.ru_maxrss / 1024}
    if out is not None and out.exists():
        reading["sha256"] = hashlib.sha256(out.read_bytes()).hexdigest()
        out.unlink()
    return reading


def cli_pairs(trees: dict, args_text: str, pairs: int, scratch: Path, spec: dict) -> dict:
    """Alternating ``--cli`` runs in both trees, summarized per metric."""
    if "{data}" in args_text:
        cli_reading(trees["base"], ["gen", "--out", str(scratch / "data"), "--scenes", "32"],
                    None)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = iter(range(2 * pairs))

    def runner(side):
        out = scratch / f"out_{next(runs)}"
        argv = [a.format(data=scratch / "data", out=out) for a in shlex.split(args_text)]
        return cli_reading(trees[side], argv, out)

    readings = run_pairs(runner, pairs)
    summary = {name: summarize(column(readings, "base", name), column(readings, "change", name),
                               "lower", bounds[gated])
               for name, gated in CLI_METRICS.items()}
    for name, s in summary.items():
        print(f"{name}: base {s['base_quartiles'][1]:.4g} -> change "
              f"{s['change_quartiles'][1]:.4g}, wins {s['wins']}/{s['pairs']}, {s['verdict']}")
    return {"summary": summary, "readings": readings}


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
    parser.add_argument("--workload", help="a perfbench workload (or give --cli)")
    parser.add_argument("--cli", metavar="ARGS", help="epcontrast arguments to run instead")
    parser.add_argument("--seeds", default="0", help="comma-separated, for example 0,7")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--scratch", type=Path, help="parent of the clones (default: a temp dir)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if (args.workload is None) == (args.cli is None):
        parser.error("give exactly one of --workload and --cli")

    scratch = Path(tempfile.mkdtemp(prefix="ab-", dir=args.scratch))
    try:
        trees = {side: scratch / side for side in SIDES}
        revs = {side: clone(rev, trees[side])
                for side, rev in zip(SIDES, (args.base, args.change))}
        spec = json.loads((trees["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.cli is not None:
            result = {"cli": args.cli, "pairs": args.pairs, "base": revs["base"],
                      "change": revs["change"],
                      **cli_pairs(trees, args.cli, args.pairs, scratch, spec)}
            args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
            return 0
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
