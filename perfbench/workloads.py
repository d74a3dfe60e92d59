"""The benchmark's three workloads, driven through epcontrast's public API.

Every workload is a closed loop: one caller issues the next call only after
the previous one returns. ``setup`` turns the run seed into the inputs (scene
files or embeddings); ``run_pass`` is one timed unit of work, repeated for
the length of the run; ``final_checks`` holds the output checks that are too
slow to repeat on every pass. Library functions are called as attributes of
their module, never through names imported here, so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import epcontrast as ep
from epcontrast import bench
from epcontrast.rng import substream

ORACLE_TOL = 1e-10


class Ledger:
    """Checked operations, timing samples and exact values of one run.

    Samples are kept per mode ("untraced" or "traced"), which the runner
    sets before each pass; checks and exact values span both modes, so a
    traced pass must reproduce what an untraced pass produced.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mode = "untraced"
        self.samples: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.values: dict[str, object] = {}

    def sample(self, name: str, value: float) -> None:
        self.samples[self.mode][name].append(value)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def exact(self, name: str, value) -> None:
        """Record a value every pass must reproduce exactly."""
        if name not in self.values:
            self.values[name] = value
        self.check(self.values[name] == value, f"{name} changed between passes")


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(a)))


def _balanced_partition(rng: np.random.Generator, n: int, m: int):
    """Random covering assignment of n points to m segments of near-equal size."""
    return ep.SegmentAssignment(rng.permutation(np.arange(n, dtype=np.int64) % m), m)


def _oracle_agrees(value: float, reference: float) -> bool:
    return abs(value - reference) <= ORACLE_TOL * max(1.0, abs(reference))


class Workload:
    """One workload; subclasses set ``name`` and define setup and run_pass."""

    name = ""

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, ledger: Ledger) -> None:
        raise NotImplementedError

    def final_checks(self, ledger: Ledger) -> None:
        """Checks too slow to repeat on every pass; run once, untimed."""

    def memory(self) -> dict[str, float]:
        """Per-layer memory figures for the traced run; none by default."""
        return {}


# ---------------------------------------------------------------------------
# desk_ep: the north-star pre-training workload
# ---------------------------------------------------------------------------


class DeskEp(Workload):
    """Desk-scale ``ep`` pre-training from EPCC files, then two linear probes."""

    name = "desk_ep"
    TRAIN, HOLDOUT = 32, 8
    CLUSTERS, POINTS_PER_CLUSTER = 8, 128  # N = 1024
    SEGMENTS, EMBED, HIDDEN = 32, 32, 64
    EPOCHS = 2
    LAM, TAU = 0.1, 1.0
    PROBE_STEPS = 200
    FRACTIONS = (("probe_acc_100pct", 1.0), ("probe_acc_0.1pct", 0.001))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir / self.name
        self.train_cfg = ep.TrainConfig(
            epochs=self.EPOCHS, seed=seed, loss=ep.LossConfig(lam=self.LAM, tau=self.TAU),
            loss_kind="ep", hidden=self.HIDDEN, embed_dim=self.EMBED,
        )
        self.kmeans_cfg = ep.KMeansConfig(target_segments=self.SEGMENTS, seed=seed)
        self.steps = self.EPOCHS * self.TRAIN

    def params(self) -> dict:
        return dict(
            train_scenes=self.TRAIN, holdout_scenes=self.HOLDOUT,
            n=self.CLUSTERS * self.POINTS_PER_CLUSTER, m=self.SEGMENTS, c=self.EMBED,
            hidden=self.HIDDEN, loss="ep", lam=self.LAM, tau=self.TAU, epochs=self.EPOCHS,
            steps=self.steps, probe_steps=self.PROBE_STEPS,
            label_fractions=[f for _, f in self.FRACTIONS], scene_format="epcc",
        )

    def setup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        cfg = ep.SyntheticSceneConfig(
            num_clusters=self.CLUSTERS, points_per_cluster=self.POINTS_PER_CLUSTER,
            seed=self.seed,
        )
        for i in range(self.TRAIN + self.HOLDOUT):
            scene = ep.generate_scene(cfg, substream(self.seed, i))
            ep.save_binary(scene, self.dir / f"scene_{i:03d}.epcc")

    def run_pass(self, ledger: Ledger) -> None:
        scenes = [ep.load_binary(p) for p in sorted(self.dir.glob("scene_*.epcc"))]
        n = self.CLUSTERS * self.POINTS_PER_CLUSTER
        for s in scenes:
            ledger.check(s.n == n and s.labels is not None, "scene load")

        t0 = time.perf_counter()
        params, history = ep.pretrain(scenes[: self.TRAIN], self.train_cfg, self.kmeans_cfg)
        t1 = time.perf_counter()
        ledger.check(
            len(history) == self.steps and all(math.isfinite(row[2]) for row in history),
            "pretrain history has one finite loss per step",
        )

        ckpt = self.dir / "encoder.epck"
        ep.save_checkpoint(params, ckpt)
        blob = ckpt.read_bytes()
        back = ep.load_checkpoint(ckpt)
        ledger.check(
            all(np.array_equal(a, b) for a, b in zip(params.weights + params.biases,
                                                     back.weights + back.biases)),
            "checkpoint round-trips through save/load",
        )
        sha = hashlib.sha256(blob).hexdigest()
        ledger.exact("checkpoint_sha256", sha)
        ledger.values[f"checkpoint_sha256_{ledger.mode}"] = sha

        t2 = time.perf_counter()
        accs = {}
        for name, fraction in self.FRACTIONS:
            probe_cfg = ep.ProbeConfig(
                steps=self.PROBE_STEPS, label_fraction=fraction,
                holdout_fraction=self.HOLDOUT / (self.TRAIN + self.HOLDOUT), seed=self.seed,
            )
            accs[name] = ep.linear_probe(params, scenes, probe_cfg)
        end = time.perf_counter()
        for name, acc in accs.items():
            ledger.check(0.0 <= acc <= 1.0, f"{name} is an accuracy")
            ledger.exact(name, acc)
            ledger.sample(name, acc)

        ledger.sample("pretrain_steps_per_s", self.steps / (t1 - t0))
        ledger.sample("probe_s", end - t2)


# ---------------------------------------------------------------------------
# kernels_large: the loss kernels alone, at bench sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    name: str
    kind: str
    n: int
    m: int = 1
    c: int = 32
    k: int | None = None

    @property
    def pairs(self) -> int:
        """Scored similarities: positives plus negatives (N plus N*k when sampled)."""
        if self.k is not None:
            return self.n + self.n * self.k
        return sum(ep.count_pairs(self.kind, self.n, self.m, self.c))


def _evaluate(case: Case, f1, f2, seg, seed: int):
    cfg = ep.LossConfig(neg_sample_count=case.k)
    if case.kind == "pc":
        return ep.point_infonce(f1, f2, cfg, substream(seed, 7))
    if case.kind == "ag":
        return ep.ag_contrast(f1, f2, seg, cfg)
    return ep.channel_contrast(f1, f2, cfg)


class KernelsLarge(Workload):
    """Value plus both gradients of each loss kernel on seeded embeddings."""

    name = "kernels_large"
    CASES = (
        Case("pc", "pc", 4000),
        Case("pc_sampled", "pc", 4000, k=64),
        Case("ag", "ag", 16384, m=2000),
        Case("cc", "cc", 65536, c=32),
    )
    # full-enumeration cases again at oracle scale (N <= 256, M <= 64)
    ORACLE_CASES = (
        Case("pc", "pc", 128),
        Case("ag", "ag", 256, m=64),
        Case("cc", "cc", 256),
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.inputs: dict[str, tuple] = {}

    def params(self) -> dict:
        return {
            c.name: dict(kind=c.kind, n=c.n, m=c.m, c=c.c, k=c.k, pairs=c.pairs)
            for c in self.CASES
        }

    def _make(self, case: Case, tag: int) -> tuple:
        rng = substream(self.seed, tag)
        f1 = rng.normal(size=(case.n, case.c))
        f2 = rng.normal(size=(case.n, case.c))
        seg = _balanced_partition(rng, case.n, case.m) if case.kind == "ag" else None
        return f1, f2, seg

    def setup(self) -> None:
        self.inputs = {case.name: self._make(case, i) for i, case in enumerate(self.CASES)}

    def run_pass(self, ledger: Ledger) -> None:
        for case in self.CASES:
            f1, f2, seg = self.inputs[case.name]
            t0 = time.perf_counter()
            out = _evaluate(case, f1, f2, seg, self.seed)
            ledger.sample(f"{case.name}_eval_s", time.perf_counter() - t0)
            ledger.check(
                math.isfinite(out.value) and out.grad_f1.shape == f1.shape
                and out.grad_f2.shape == f2.shape and _finite(out.grad_f1)
                and _finite(out.grad_f2),
                f"{case.name}: finite value and gradients of the input shape",
            )
            ledger.exact(f"{case.name}_value", out.value)

    def final_checks(self, ledger: Ledger) -> None:
        for i, case in enumerate(self.ORACLE_CASES):
            f1, f2, seg = self._make(case, 100 + i)
            value = _evaluate(case, f1, f2, seg, self.seed).value
            reference = ep.brute_force_loss(case.kind, f1, f2, seg, ep.LossConfig())
            ledger.check(_oracle_agrees(value, reference), f"{case.name} oracle at N={case.n}")

    def memory(self) -> dict[str, float]:
        """Tracemalloc peak of one evaluation per case, next to its accounted bytes."""
        out = {}
        for case in self.CASES:
            f1, f2, seg = self.inputs[case.name]
            tracemalloc.start()
            try:
                _evaluate(case, f1, f2, seg, self.seed)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            accounted = bench.accounted_bytes(case.kind, case.n, case.m, case.c)
            out[f"losses.{case.name}.pairs"] = case.pairs
            out[f"losses.{case.name}.peak_bytes"] = peak
            out[f"losses.{case.name}.accounted_bytes"] = accounted
            out[f"losses.{case.name}.peak_over_accounted"] = peak / accounted
        return out


# ---------------------------------------------------------------------------
# segment_large: scene ingest plus superpoint segmentation
# ---------------------------------------------------------------------------


class SegmentLarge(Workload):
    """Load large scenes from ASCII and EPCC files and segment each one."""

    name = "segment_large"
    SCENES = 6  # even indices ASCII, odd indices EPCC
    CLUSTERS, POINTS_PER_CLUSTER = 16, 512  # N = 8192
    SEGMENTS = 256
    # A fixed Lloyd budget (tol = 0 never stops early) gives every seed the
    # same work; at the default tolerance the summed iteration count of 8
    # scenes has an 11% quartile spread between seeds, too wide for a
    # wall-time bound.
    LLOYD_ITERS = 25

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir / self.name
        self.n = self.CLUSTERS * self.POINTS_PER_CLUSTER
        self.kmeans_cfg = ep.KMeansConfig(
            target_segments=self.SEGMENTS, max_iters=self.LLOYD_ITERS, tol=0.0, seed=seed
        )
        self.files: list[Path] = []

    def params(self) -> dict:
        return dict(scenes=self.SCENES, ascii_scenes=self.SCENES // 2,
                    epcc_scenes=self.SCENES - self.SCENES // 2, n=self.n, m=self.SEGMENTS,
                    lloyd_iters=self.LLOYD_ITERS, tol=0.0)

    def setup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        cfg = ep.SyntheticSceneConfig(
            num_clusters=self.CLUSTERS, points_per_cluster=self.POINTS_PER_CLUSTER,
            seed=self.seed,
        )
        self.files = []
        for i in range(self.SCENES):
            scene = ep.generate_scene(cfg, substream(self.seed, i))
            if i % 2 == 0:
                path = self.dir / f"scene_{i:03d}.txt"
                ep.save_ascii(scene, path)
            else:
                path = self.dir / f"scene_{i:03d}.epcc"
                ep.save_binary(scene, path)
            self.files.append(path)

    def run_pass(self, ledger: Ledger) -> None:
        start = time.perf_counter()
        for path in self.files:
            cloud = ep.load_ascii(path) if path.suffix == ".txt" else ep.load_binary(path)
            seg = ep.kmeans_segments(cloud, self.kmeans_cfg)
            ids = seg.segment_of
            ledger.check(
                ids.shape == (self.n,) and seg.num_segments == self.SEGMENTS
                and ids.min() >= 0 and ids.max() < self.SEGMENTS
                and bool(np.all(np.bincount(ids, minlength=self.SEGMENTS) > 0)),
                f"{path.name}: covering partition into {self.SEGMENTS} non-empty segments",
            )
        ledger.sample("segment_scenes_per_s", len(self.files) / (time.perf_counter() - start))


WORKLOADS = {w.name: w for w in (DeskEp, KernelsLarge, SegmentLarge)}
