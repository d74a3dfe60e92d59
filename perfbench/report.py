"""Run every workload and print all end-to-end and per-layer metrics.

    python3 perfbench/report.py --seeds 0 --seconds 20 [--out FILE]

Each workload runs in a fresh process per seed, once untraced (``--trace 0``)
and once traced (``--trace 1``), through ``perfbench/run.py``. With one seed
the report shows each metric's median, tail percentile and sample count;
with several it shows the median over seeds and the spread, the distance
between the first and third quartile as a share of the median. The traced
run's checkpoint bytes are compared with the untraced run's, and for the
loss kernels the measured tracemalloc peak is set beside the accounted
bytes. ``--out`` writes every run's result and detail as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KERNEL_CASES = ("pc", "pc_sampled", "ag", "cc")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    detail = next(line for line in reversed(lines) if line.startswith("detail: "))
    return {"result": json.loads(lines[-1]), "detail": json.loads(detail[len("detail: "):])}


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median; None below 2 values."""
    if len(values) < 2 or statistics.median(values) == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def print_metrics(title: str, runs: list[dict], key: str) -> None:
    print(f"  {title}")
    names = sorted({n for r in runs for n in r["detail"][key]})
    for name in names:
        rows = [r["detail"][key][name] for r in runs if name in r["detail"][key]]
        unit = rows[0]["unit"]
        if len(rows) == 1:
            d = rows[0]
            tail = "".join(f", {k} {v:.6g}" for k, v in d.items() if k.startswith("p"))
            extra = f"  (n={d['n']}{tail})" if "n" in d else ""
            print(f"    {name:<40} {d['value']:>14.6g} {unit}{extra}")
        else:
            values = [d["value"] for d in rows]
            s = spread(values)
            s_text = "n/a" if s is None else f"{100 * s:.2f}%"
            print(f"    {name:<40} {statistics.median(values):>14.6g} {unit}"
                  f"  (median of {len(values)} seeds, spread {s_text})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    traces = (0,) if args.no_trace else (0, 1)

    runs: dict[str, dict[str, list[dict]]] = {}
    ok = True
    for name in workloads:
        runs[name] = {"untraced": [], "traced": []}
        for seed in args.seeds:
            for trace in traces:
                run = run_once(name, seed, seconds, trace)
                runs[name]["traced" if trace else "untraced"].append(run)
                ok &= run["result"]["correct"]

    env = runs[workloads[0]]["untraced"][0]["detail"]["env"]
    print(f"seeds {args.seeds}, {seconds} s per run, {env['threads']} BLAS thread(s), "
          f"nproc {env['nproc']}, numpy {env['numpy']}, python {env['python']}")
    for name in workloads:
        untraced, traced = runs[name]["untraced"], runs[name]["traced"]
        attempted = sum(r["result"]["attempted"] for r in untraced + traced)
        failed = sum(r["result"]["failed"] for r in untraced + traced)
        print(f"\n{name}: {failed} of {attempted} checked operations failed")
        print_metrics("end-to-end (untraced runs)", untraced, "end_to_end")
        if traced:
            print_metrics("per layer (traced runs)", traced, "per_layer")
        for u, t in zip(untraced, traced):
            sha_u = u["detail"]["values"].get("checkpoint_sha256")
            sha_t = t["detail"]["values"].get("checkpoint_sha256_traced")
            if sha_u is not None:
                same = sha_u == sha_t
                ok &= same
                print(f"  seed {u['detail']['seed']}: traced checkpoint "
                      f"{'matches' if same else 'DIFFERS FROM'} untraced, sha256 {sha_u[:16]}")
        if traced and "losses.ag.peak_bytes" in traced[0]["detail"]["per_layer"]:
            layers = traced[0]["detail"]["per_layer"]
            print(f"  measured vs accounted (seed {traced[0]['detail']['seed']}):")
            print(f"    {'case':<12} {'pairs':>12} {'peak bytes':>14} {'accounted':>14} {'ratio':>7}")
            for case in KERNEL_CASES:
                v = {k: layers[f"losses.{case}.{k}"]["value"]
                     for k in ("pairs", "peak_bytes", "accounted_bytes", "peak_over_accounted")}
                print(f"    {case:<12} {v['pairs']:>12} {v['peak_bytes']:>14} "
                      f"{v['accounted_bytes']:>14} {v['peak_over_accounted']:>7.3f}")

    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seconds": seconds, "seeds": args.seeds, "runs": runs}, indent=1, sort_keys=True
        ) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
