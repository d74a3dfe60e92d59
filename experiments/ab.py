"""Alternating A/B runs on two git revisions: a benchmark workload, or the
``epcontrast`` command itself.

    python3 experiments/ab.py BASE CHANGE --workload desk_ep --seeds 0,7 \\
        --pairs 10 --out AB_12.json
    python3 experiments/ab.py BASE CHANGE --pairs 6 --out AB_16_cli.json \\
        --cli "pretrain --data {data} --out {out} --loss ep \\
               --set kmeans.segments=32 --set train.epochs=2"

Each revision is cloned from this repository into its own scratch
directory, so both trees are fresh clones that differ only in their code.
Both modes run one flow: for each seed, pair i takes one reading in each
tree, the base first in even pairs and the change first in odd ones, so a
slow spell of the host falls on both sides alike. Each gated metric is
then summarized (``summarize``): the change's wins, the median gap, both
sides' quartiles, the no-regression verdict against the metric's
``bound``, and whether a gain clears the claim rule: at least ten pairs,
better in nine of ten of them, and a median gap beyond the base's quartile
distance. After every seed the output file is rewritten and one line per
gated metric printed. It holds the mode's settings, both commits with
their ``src`` tree hashes, and ``runs``: one ``{seed, summary, readings}``
per seed, with every reading of every pair. Comparing a revision with
itself is an A/A control: it shows how far two trees of the same code
read apart.

``--workload W`` reads one untraced run of a perfbench workload per side
from the ``run_once`` of that tree's own ``perfbench/report.py``, for
``BENCHMARK.json``'s ``run_seconds`` unless ``--seconds`` is given. It
gates ``BENCHMARK.json``'s end-to-end metrics and reports ``host_ref_s``
as per-side quartiles.

``--cli "ARGS"`` reads one run of the ``epcontrast`` command
(``cli.main``) per side instead, in one run of pairs under seed ``null``,
with one BLAS thread and no GLIBC_TUNABLES, so each side runs under
whatever allocator settings its own code makes. ``{data}`` stands for a
directory of 32 desk scenes that the base tree's ``gen`` writes once, and
``{out}`` for a fresh file per run, whose sha256 is recorded. Each run
reads its wall and CPU seconds, minor page faults and max RSS from the
rusage of the child (``os.wait4``), gated by the bound of ``pass_s``
(times and faults) or ``peak_rss_mb`` (RSS).

Standard library only; the clones are removed when the runs end.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
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
CLAIM_PAIRS = 10
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
    "lower" or "higher". The change clears the claim rule when at least
    :data:`CLAIM_PAIRS` pairs ran, it is better in at least 90% of them, and
    its median is better than the base's by more than the base's
    interquartile distance.

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
        "clears": (len(base) >= CLAIM_PAIRS and wins >= 0.9 * len(base)
                   and -sign * gap > qb[2] - qb[0]),
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
    """Every end-to-end metric of one untraced run of ``workload``, with its
    operation counts, from the ``run_once`` of ``tree``'s own
    ``perfbench/report.py``."""
    spec = importlib.util.spec_from_file_location("report", tree / "perfbench" / "report.py")
    report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report)
    detail = report.run_once(workload, seed, seconds, 0)["detail"]
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


def cli_runner(trees: dict, args_text: str, scratch: Path):
    """``runner(side, seed)``: :func:`cli_reading` of ``args_text`` in
    ``trees[side]``, the seed unused; ``{data}`` is written once, here."""
    if "{data}" in args_text:
        cli_reading(trees["base"], ["gen", "--out", str(scratch / "data"), "--scenes", "32"],
                    None)
    outs = itertools.count()

    def runner(side, seed):
        out = scratch / f"out_{next(outs)}"
        argv = [a.format(data=scratch / "data", out=out) for a in shlex.split(args_text)]
        return cli_reading(trees[side], argv, out)

    return runner


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
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--scratch", type=Path, help="parent of the clones (default: a temp dir)")
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.cli is None):
        parser.error("give exactly one of --workload and --cli")

    scratch = Path(tempfile.mkdtemp(prefix="ab-", dir=args.scratch))
    try:
        trees = {side: scratch / side for side in SIDES}
        revs = {side: clone(rev, trees[side])
                for side, rev in zip(SIDES, (args.base, args.change))}
        spec = json.loads((trees["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {m["name"]: m for m in spec["end_to_end"]}
        if args.workload is not None:
            seconds = args.seconds or spec["run_seconds"]
            header = {"workload": args.workload, "seconds": seconds}
            seeds, quartiled = [int(x) for x in args.seeds.split(",")], ("host_ref_s",)
            gated = {name: (m["better"], m["bound"]) for name, m in metrics.items()}

            def runner(side, seed):
                return perfbench_reading(trees[side], args.workload, seed, seconds)
        else:
            header, seeds, quartiled = {"cli": args.cli}, [None], ()
            gated = {name: ("lower", metrics[m]["bound"]) for name, m in CLI_METRICS.items()}
            runner = cli_runner(trees, args.cli, scratch)
        runs = []
        result = {**header, "pairs": args.pairs, "base": revs["base"], "change": revs["change"],
                  "runs": runs}
        for seed in seeds:
            readings = run_pairs(lambda side: runner(side, seed), args.pairs)
            summary = {name: summarize(column(readings, "base", name),
                                       column(readings, "change", name), better, bound)
                       for name, (better, bound) in gated.items()}
            summary.update({name: {side: quartiles(column(readings, side, name))
                                   for side in SIDES}
                            for name in quartiled})
            runs.append({"seed": seed, "summary": summary, "readings": readings})
            # written after every seed, so a later failure keeps the finished seeds
            args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
            for name in gated:
                s = summary[name]
                print(f"seed {seed} {name}: base {s['base_quartiles'][1]:.4g} -> change "
                      f"{s['change_quartiles'][1]:.4g}, wins {s['wins']}/{s['pairs']}, "
                      f"clears {s['clears']}, {s['verdict']}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
