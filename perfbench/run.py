"""Run one benchmark workload against the epcontrast sources in ``src/``.

    python3 perfbench/run.py --workload desk_ep --seed 0 --seconds 20 --trace 0

The run first measures peak memory in a fresh child process that sets up
and runs one pass. It then sets its inputs up from ``--seed`` (several
times, reporting the median set-up time), repeats closed-loop passes of the
workload for ``--seconds`` seconds and checks every output. Before the first
pass and after each one it times a fixed reference computation
(``hostref.py``). The times that gate
a change, ``setup_s`` and ``pass_s``, are CPU seconds of this
single-threaded process in reference seconds: scaled by how much slower the
reference ran than on an idle host, so that neither the time the process
waits for a processor nor a slow spell of the shared host moves them. The
raw CPU times (``setup_cpu_s``, ``cpu_s``), the wall-clock times
(``setup_wall_s``, ``wall_s``) and the reference's own time (``host_ref_s``)
sit beside them. With ``--trace 0`` every pass
is untraced and the result carries the end-to-end metrics named in
``BENCHMARK.json``. With ``--trace 1`` untraced and traced passes alternate;
the result carries the per-layer metrics from the traced passes, and the
difference of the two kinds of pass is the tracing overhead. Spans are
written to ``perfbench/_out/``.

Standard output ends with a ``detail:`` line (every metric with its median,
tail percentile and sample count, the environment, the workload parameters
and the check counts) and then the result line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# The process environment is fixed, and recorded in every result. BLAS,
# OpenMP and glibc read these once, at start-up, so main() re-executes the
# script when they differ. One BLAS thread gives much tighter quartiles on a
# small shared machine than two. Serving large arrays from the reused heap
# rather than fresh mmap pages keeps the loss kernels' timings off the host's
# page-fault path, which swung one ag evaluation by +-25% between runs.
# The peak-RSS probe instead maps every block of 128 KiB or more on its own
# and unmaps it when freed (a fixed glibc mmap threshold), so its peak follows
# live memory rather than how a heap happened to fragment. With that, a fixed
# hash seed and no transparent-huge-page advice from numpy, the peak repeats
# to within 1% across seeds and processes; under the timed process's
# allocator, or glibc's default one, it moved by up to 16 MB between
# processes doing the same work.
THREADS = 1
FIXED_ENV = {
    "OPENBLAS_NUM_THREADS": str(THREADS),
    "OMP_NUM_THREADS": str(THREADS),
    "MKL_NUM_THREADS": str(THREADS),
    "GLIBC_TUNABLES": "glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=4294967296",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "PYTHONHASHSEED": "0",
}
PROBE_ENV = {**FIXED_ENV, "GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"}

ROOT = Path(__file__).resolve().parent.parent
# Few enough that the scene files all set-ups write stay a few MB: a set-up's
# file writes cost more CPU time while earlier writes are still being flushed.
SETUP_REPEATS = 9
# reference timings before the first pass; one more follows every pass
REF_BEFORE_PASSES = 3
MIN_PASSES = 3  # per kind of pass, so every median has at least three samples

# units of the end-to-end metrics; each workload reports the ones it measures
E2E_UNITS = {
    "setup_s": "s",
    "setup_cpu_s": "s",
    "setup_wall_s": "s",
    "pass_s": "s",
    "cpu_s": "s",
    "wall_s": "s",
    "host_ref_s": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
    "pretrain_steps_per_s": "1/s",
    "probe_s": "s",
    "probe_acc_100pct": "ratio",
    "probe_acc_0.1pct": "ratio",
    "pc_eval_s": "s",
    "pc_sampled_eval_s": "s",
    "ag_eval_s": "s",
    "cc_eval_s": "s",
    "segment_scenes_per_s": "1/s",
}

LAYER_UNITS = (
    (".self_s", "s"),
    ("overhead_s", "s"),
    ("peak_over_accounted", "ratio"),
    ("bytes", "bytes"),
)


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def describe(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    for p in (99.9, 99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = xs[math.ceil(p / 100 * n) - 1]
            break
    return out


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--peak-rss-probe", action="store_true",
                        help="set up, run one pass and print the peak RSS (used by the run itself)")
    return parser.parse_args()


def run_pass(wl, ledger, tracer, label: str) -> bool:
    """One pass, traced when ``tracer`` is given; a raised error counts as a
    failed operation and is reported, not propagated."""
    try:
        if tracer is not None:
            with tracer.traced(f"{wl.name}-{label}"):
                wl.run_pass(ledger)
        else:
            wl.run_pass(ledger)
    except Exception:
        traceback.print_exc()
        ledger.check(False, f"{label} raised")
        return False
    return True


def probe_peak_rss(args, ledger) -> float | None:
    """Peak resident memory of a fresh process that sets up and runs one pass.

    A fixed amount of work in its own process: the timed run's peak grows
    with the number of passes that fit in ``--seconds``, so it would follow
    the machine's speed.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--peak-rss-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PROBE_ENV},
                          capture_output=True, text=True, timeout=150)
    sys.stderr.write(proc.stderr)
    try:
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        probe = {}
    ok = proc.returncode == 0 and probe.get("failed") == 0
    ledger.check(ok, "peak-RSS probe pass")
    return probe.get("peak_rss_mb") if ok else None


def run_probe(wl) -> dict:
    """Body of the peak-RSS probe process: one set-up and one untraced pass."""
    from workloads import Ledger

    ledger = Ledger()
    wl.setup()
    run_pass(wl, ledger, None, "probe")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {"peak_rss_mb": rss_mb, "attempted": ledger.attempted, "failed": ledger.failed}


def run_workload(wl, ledger, seconds: float, trace: bool):
    """Set up, run timed passes until ``seconds`` elapse, then check; returns
    (set-up times, reference times, tracer or None)."""
    from hostref import HostReference
    from spans import Tracer

    reference = HostReference()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start, cpu = time.perf_counter(), time.process_time()
        wl.setup()
        setup_times.append((time.perf_counter() - start, time.process_time() - cpu))

    # one untimed pass first, so file caches and lazy imports are warm for
    # every timed pass; its time is kept in the detail line
    start = time.perf_counter()
    ok = run_pass(wl, ledger, None, "warm-up")
    ledger.values["warmup_s"] = time.perf_counter() - start
    ledger.samples.clear()
    reference.measure()  # warm-up
    ref_times = [reference.measure() for _ in range(REF_BEFORE_PASSES)]

    tracer = Tracer() if trace else None
    done = {"untraced": 0, "traced": 0}
    deadline = time.perf_counter() + seconds
    index = 0
    while ok:
        ledger.mode = "traced" if trace and index % 2 == 1 else "untraced"
        start, cpu = time.perf_counter(), time.process_time()
        ok = run_pass(wl, ledger, tracer if ledger.mode == "traced" else None, f"pass{index}")
        if ok:
            ledger.sample("wall_s", time.perf_counter() - start)
            ledger.sample("cpu_s", time.process_time() - cpu)
        ref_times.append(reference.measure())
        done[ledger.mode] += 1
        index += 1
        enough = done["untraced"] >= MIN_PASSES and (not trace or done["traced"] >= MIN_PASSES)
        if enough and time.perf_counter() >= deadline:
            break

    ledger.mode = "untraced"
    try:
        wl.final_checks(ledger)
    except Exception:
        traceback.print_exc()
        ledger.check(False, "final checks raised")
    return setup_times, ref_times, tracer


def end_to_end(ledger, setup_times, ref_times, probe_rss: float | None) -> dict[str, dict]:
    from hostref import NOMINAL_S

    untraced = ledger.samples["untraced"]
    setup_cpu = [cpu for _, cpu in setup_times]
    scale = NOMINAL_S / statistics.median(ref_times)
    out = {
        "setup_s": describe([t * scale for t in setup_cpu]),
        "setup_cpu_s": describe(setup_cpu),
        "setup_wall_s": describe([wall for wall, _ in setup_times]),
        "pass_s": describe([t * scale for t in untraced["cpu_s"]]),
        "host_ref_s": describe(ref_times),
    }
    for name, samples in untraced.items():
        out[name] = describe(samples)
    if probe_rss is not None:
        out["peak_rss_mb"] = {"median": probe_rss}
    out["fail_frac"] = {"median": ledger.failed / max(ledger.attempted, 1)}
    return {name: dict(value=d["median"], unit=E2E_UNITS[name], **d) for name, d in out.items()}


def per_layer(ledger, tracer, wl) -> dict[str, dict]:
    passes = [tracer.layer_metrics(run_id) for run_id in tracer.run_ids()]
    names = sorted({name for p in passes for name in p})
    out = {}
    for name in names:
        out[name] = describe([p.get(name, 0) for p in passes])
    try:
        memory = wl.memory()
    except Exception:
        traceback.print_exc()
        ledger.check(False, "memory measurement raised")
        memory = {}
    for name, value in memory.items():
        out[name] = {"median": value, "n": 1}
    cpus = {mode: ledger.samples[mode]["cpu_s"] for mode in ("traced", "untraced")}
    if cpus["traced"] and cpus["untraced"]:
        overhead = statistics.median(cpus["traced"]) - statistics.median(cpus["untraced"])
        out["trace.overhead_s"] = {"median": overhead, "n": len(cpus["traced"])}
    return {name: dict(value=d["median"], unit=layer_unit(name), **d) for name, d in out.items()}


def contract_metrics(spec_metrics, measured: dict[str, dict], default_zero: bool) -> dict:
    """The metrics BENCHMARK.json names, in its order and units."""
    out = {}
    for m in spec_metrics:
        name = m["name"]
        if name in measured:
            value = measured[name]["value"]
        elif default_zero:
            value = 0  # this layer does no work on this workload
        else:
            raise KeyError(f"end-to-end metric {name!r} was not measured")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def print_table(title: str, metrics: dict[str, dict]) -> None:
    print(title)
    for name, d in metrics.items():
        tail = ", ".join(f"{k} {v:.6g}" for k, v in d.items() if k.startswith("p"))
        extra = f" (n={d['n']}{', ' + tail if tail else ''})" if "n" in d else ""
        print(f"  {name:<44} {d['value']:>14.6g} {d['unit']}{extra}")


def main() -> int:
    args = parse_args()
    env = PROBE_ENV if args.peak_rss_probe else FIXED_ENV
    if any(os.environ.get(k) != v for k, v in env.items()):
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], {**os.environ, **env})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "epcontrast" / "__init__.py").is_file():
        print(f"no epcontrast sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    from workloads import WORKLOADS, Ledger

    workdir = ROOT / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, workdir)
    if args.peak_rss_probe:
        try:
            print(json.dumps(run_probe(wl)))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    ledger = Ledger()
    probe_rss = probe_peak_rss(args, ledger)
    try:
        setup_times, ref_times, tracer = run_workload(wl, ledger, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(ledger, setup_times, ref_times, probe_rss)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print_table("end-to-end (untraced passes):", e2e)
    layers = {}
    if tracer is not None:
        layers = per_layer(ledger, tracer, wl)
        print_table("per layer (traced passes):", layers)
        out_dir = ROOT / "perfbench" / "_out"
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "threads": THREADS,
            "fixed_env": {k: os.environ[k] for k in FIXED_ENV},
            "peak_rss_probe_env": PROBE_ENV,
            "nproc": len(os.sched_getaffinity(0)),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "params": wl.params(),
        "passes": {mode: len(s["wall_s"]) for mode, s in ledger.samples.items()},
        "values": ledger.values,
        "end_to_end": e2e,
        "per_layer": layers,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
    }
    print("detail: " + json.dumps(detail, sort_keys=True))

    if args.trace:
        metrics = contract_metrics(spec["per_layer"], layers, default_zero=True)
    else:
        metrics = contract_metrics(spec["end_to_end"], e2e, default_zero=False)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
