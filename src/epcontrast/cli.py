"""Command-line entry point.

Subcommands: ``gen`` (write synthetic scenes), ``segment`` (superpoint ids
for one scene), ``pretrain`` (contrastive pre-training to a checkpoint +
loss CSV), ``probe`` (linear-probe accuracy of a checkpoint), ``bench``
(pair-count/byte scaling report), ``check`` (the oracle and gradient
sweeps of :mod:`epcontrast.selfcheck`).

Settings come from a plain-text config file of ``key = value`` lines with
``#`` comments and dot-namespaced keys. Each key names one field of a config
dataclass (``SETTINGS``) and takes that field's default and value type;
unknown keys are rejected. Precedence, lowest to highest: defaults, config
file, the EPC_SEED environment variable (seed only), ``--set key=value``
overrides, dedicated flags. Every subcommand but ``check``, which takes no
settings, prints the fully resolved configuration and builds, and so
validates, every config dataclass it uses before it reads any file.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import platform
import shutil
import sys
from dataclasses import fields
from pathlib import Path

from . import bench as bench_mod
from .encoder import load_checkpoint, save_checkpoint
from .errors import ConfigError
from .losses import KINDS, PAIR_KINDS, LossConfig
from .pointcloud import AugmentParams, PointCloud, load_ascii, load_binary, save_binary
from .rng import substream
from .selfcheck import gradient_mismatches, oracle_mismatches
from .superpoint import KMeansConfig, kmeans_segments
from .trainer import (
    ProbeConfig,
    SyntheticSceneConfig,
    TrainConfig,
    _check_negatives,
    generate_scene,
    linear_probe,
    pretrain,
)

# key -> (config class, field, help); each key takes its field's default and
# the type of that default. "seed" also sets every other class's seed field.
SETTINGS: dict[str, tuple] = {
    "seed": (TrainConfig, "seed", "master seed for every stream (EPC_SEED env overrides)"),
    "scene.clusters": (SyntheticSceneConfig, "num_clusters", "blobs per synthetic scene"),
    "scene.points_per_cluster": (SyntheticSceneConfig, "points_per_cluster", "points per blob"),
    "scene.cluster_std": (SyntheticSceneConfig, "cluster_std", "blob spatial std dev in meters"),
    "scene.color_noise_std": (SyntheticSceneConfig, "color_noise_std",
                              "per-point color noise std dev"),
    "scene.extent": (SyntheticSceneConfig, "extent", "room edge length in meters"),
    "augment.scale_min": (AugmentParams, "scale_min", "lower bound of the uniform scale draw"),
    "augment.scale_max": (AugmentParams, "scale_max", "upper bound of the uniform scale draw"),
    "augment.rot_axis": (AugmentParams, "rot_axis", "rotation axis: x, y, or z"),
    "augment.rot_max": (AugmentParams, "rot_max", "max rotation angle in radians"),
    "augment.jitter_sigma": (AugmentParams, "jitter_sigma",
                             "per-coordinate jitter std dev in meters"),
    "augment.jitter_clip": (AugmentParams, "jitter_clip", "jitter clipping bound in meters"),
    "kmeans.segments": (KMeansConfig, "target_segments",
                        "target superpoint segments per scene (clamped to N)"),
    "kmeans.max_iters": (KMeansConfig, "max_iters", "Lloyd iteration cap"),
    "kmeans.tol": (KMeansConfig, "tol", "centroid-shift stopping threshold"),
    "kmeans.color_weight": (KMeansConfig, "color_weight",
                            "color scale vs unit-box positions in clustering"),
    "loss.tau": (LossConfig, "tau", "softmax temperature"),
    "loss.lambda": (LossConfig, "lam", "channel-loss weight in the combined objective"),
    "loss.normalize_rows": (LossConfig, "normalize_rows",
                            "L2-normalize point embeddings before similarities"),
    "loss.normalize_channels": (LossConfig, "normalize_channels",
                                "L2-normalize channel maps before similarities"),
    "loss.include_positive": (LossConfig, "include_positive_in_denominator",
                              "count the positive pair in the denominator"),
    "loss.reduction": (LossConfig, "reduction", "'mean' over positives or 'sum'"),
    "loss.neg_samples": (LossConfig, "neg_sample_count",
                         "point loss on round(sqrt(N*(k+1))) sampled points; 0 = all"),
    "loss.symmetric_ag": (LossConfig, "symmetric_ag",
                          "average both directions of the segment loss"),
    "encoder.hidden": (TrainConfig, "hidden", "hidden width of the per-point MLP"),
    "encoder.dim": (TrainConfig, "embed_dim", "embedding dimension C"),
    "train.epochs": (TrainConfig, "epochs", "pre-training epochs"),
    "train.batch_size": (TrainConfig, "batch_size", "scenes per optimizer step"),
    "train.lr": (TrainConfig, "base_lr", "base learning rate"),
    "train.schedule": (TrainConfig, "lr_schedule",
                       "'cosine' or 'constant' learning-rate schedule"),
    "train.beta1": (TrainConfig, "beta1", "first-moment decay"),
    "train.beta2": (TrainConfig, "beta2", "second-moment decay"),
    "train.eps": (TrainConfig, "adam_eps", "optimizer epsilon"),
    "probe.steps": (ProbeConfig, "steps", "full-batch gradient-descent steps for the probe"),
    "probe.lr": (ProbeConfig, "lr", "probe learning rate"),
    "probe.label_fraction": (ProbeConfig, "label_fraction",
                             "fraction of training points whose labels the probe sees"),
    "probe.holdout": (ProbeConfig, "holdout_fraction",
                      "trailing fraction of scenes held out for evaluation"),
}


def _cli_default(cls, name):
    default = next(f.default for f in fields(cls) if f.name == name)
    # loss.neg_samples: 0 on the command line stands for the field's None
    return 0 if default is None else default


# key -> (default, help)
DEFAULTS: dict[str, tuple] = {
    key: (_cli_default(cls, name), text) for key, (cls, name, text) in SETTINGS.items()
}


def _parse_value(key: str, raw: str, where: str = ""):
    if key not in DEFAULTS:
        raise ConfigError(f"{where}unknown config key {key!r}")
    kind = type(DEFAULTS[key][0])
    raw = raw.strip()
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}config key {key!r}: {exc}") from exc


class RunConfig:
    """Resolved key/value settings and the config dataclasses built from them."""

    def __init__(self, values: dict):
        self.values = values

    @classmethod
    def resolve(cls, config_path=None, sets=()) -> "RunConfig":
        values = {k: v for k, (v, _) in DEFAULTS.items()}
        if config_path is not None:
            values.update(cls._read_file(config_path))
        env_seed = os.environ.get("EPC_SEED")
        if env_seed is not None:
            values["seed"] = _parse_value("seed", env_seed, "EPC_SEED: ")
        for item in sets:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            key, raw = item.split("=", 1)
            key = key.strip()
            values[key] = _parse_value(key, raw, "--set: ")
        return cls(values)

    @staticmethod
    def _read_file(path) -> dict:
        values = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, val = line.split("=", 1)
                key = key.strip()
                values[key] = _parse_value(key, val, f"{path}:{lineno}: ")
        return values

    def describe(self) -> list[str]:
        return [f"{k} = {self.values[k]}" for k in sorted(self.values)]

    @property
    def seed(self) -> int:
        return self.values["seed"]

    def build(self, cls, **given):
        """A ``cls`` from the keys the table maps to it, with ``seed`` set when
        ``cls`` has that field; ``given`` sets fields no key covers."""
        kwargs = {name: self.values[key] for key, (owner, name, _) in SETTINGS.items()
                  if owner is cls}
        if any(f.name == "seed" for f in fields(cls)):
            kwargs["seed"] = self.seed
        if cls is LossConfig:
            kwargs["neg_sample_count"] = kwargs["neg_sample_count"] or None
        return cls(**kwargs, **given)


def _print_config(cfg: RunConfig) -> None:
    for line in cfg.describe():
        print(f"config: {line}")


def load_cloud(path) -> PointCloud:
    """EPCC binary if the magic matches, ASCII otherwise."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    return load_binary(path) if magic == b"EPCC" else load_ascii(path)


def _load_scene_dir(data_dir) -> list[PointCloud]:
    paths = sorted(Path(data_dir).glob("*.epcc")) + sorted(Path(data_dir).glob("*.txt"))
    if not paths:
        raise FileNotFoundError(f"no *.epcc or *.txt scenes in {data_dir}")
    return [load_cloud(p) for p in paths]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    cfg = RunConfig.resolve(args.config, args.set)
    _print_config(cfg)
    scene_cfg = cfg.build(SyntheticSceneConfig)
    if args.scenes < 1:
        raise ConfigError(f"--scenes must be >= 1, got {args.scenes}")
    out = Path(args.out)
    created = None  # the outermost directory this command makes, if any
    for d in (out, *out.parents):
        if d.exists():
            break
        created = d
    out.mkdir(parents=True, exist_ok=True)
    try:
        for i in range(args.scenes):
            cloud = generate_scene(scene_cfg, substream(cfg.seed, i))
            save_binary(cloud, out / f"scene_{i:03d}.epcc")
    except BaseException:
        if created is not None:  # an --out that existed is left as it was
            shutil.rmtree(created, ignore_errors=True)
        raise
    print(f"wrote {args.scenes} scenes to {out}")
    return 0


def _cmd_segment(args) -> int:
    cfg = RunConfig.resolve(args.config, args.set)
    if args.segments is not None:
        cfg.values["kmeans.segments"] = args.segments
    _print_config(cfg)
    kcfg = cfg.build(KMeansConfig)
    cloud = load_cloud(getattr(args, "in"))
    if kcfg.target_segments > cloud.n:
        print(
            f"warning: {kcfg.target_segments} segments requested for {cloud.n} points; "
            f"clamping to {cloud.n}",
            file=sys.stderr,
        )
    assignment = kmeans_segments(cloud, kcfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        for sid in assignment.segment_of:
            fh.write(f"{int(sid)}\n")
    print(f"wrote {assignment.num_segments} segments for {cloud.n} points to {args.out}")
    return 0


def _cmd_pretrain(args) -> int:
    cfg = RunConfig.resolve(args.config, args.set)
    _print_config(cfg)
    train_cfg = cfg.build(TrainConfig, loss=cfg.build(LossConfig),
                          augment=cfg.build(AugmentParams), loss_kind=args.loss)
    kcfg = cfg.build(KMeansConfig)
    _check_negatives(train_cfg, kcfg)
    scenes = _load_scene_dir(args.data)
    params, history = pretrain(scenes, train_cfg, kcfg)
    save_checkpoint(params, args.out)
    history_path = args.history or (str(args.out) + ".history.csv")
    with open(history_path, "w", encoding="utf-8") as fh:
        fh.write("step,epoch,loss,lr\n")
        for step, epoch, loss, lr in history:
            fh.write(f"{step},{epoch},{loss!r},{lr!r}\n")
    print(f"trained on {len(scenes)} scenes for {train_cfg.epochs} epochs")
    print(f"checkpoint: {args.out}")
    print(f"history: {history_path}")
    return 0


def _cmd_probe(args) -> int:
    cfg = RunConfig.resolve(args.config, args.set)
    if args.label_fraction is not None:
        cfg.values["probe.label_fraction"] = args.label_fraction
    _print_config(cfg)
    probe_cfg = cfg.build(ProbeConfig)
    params = load_checkpoint(args.ckpt)
    scenes = _load_scene_dir(args.data)
    acc = linear_probe(params, scenes, probe_cfg)
    print(f"{acc:.6f}")
    return 0


def _cmd_bench(args) -> int:
    cfg = RunConfig.resolve(args.config, args.set)
    _print_config(cfg)
    sizes = []
    for entry in filter(None, args.sizes.split(",")):
        try:
            sizes.append(int(entry))
        except ValueError:
            raise ConfigError(f"--sizes entry {entry!r} is not an integer") from None
    budget = None
    if args.budget_mb is not None:
        if not 0 < args.budget_mb < math.inf:
            raise ConfigError(f"--budget-mb must be finite and positive, got {args.budget_mb}")
        budget = int(args.budget_mb * 1024 * 1024)
    report = bench_mod.bench_loss(
        args.kind,
        sizes,
        m=args.m,
        c=args.c,
        repeats=args.repeats,
        seed=cfg.seed,
        byte_budget=budget,
        measure=not args.count_only,
    )
    for line in report.table_lines():
        print(line)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(report.csv_lines()) + "\n")
        print(f"csv: {args.csv}")
    return 0


def _cmd_check(args) -> int:
    del args
    ok = True
    for label, sweep, stream, instances in (
        ("oracle equivalence", oracle_mismatches, 1345, 25),
        ("gradient agreement", gradient_mismatches, 1346, 5),
    ):
        failures = sweep(substream(stream, 0), instances)
        if failures:
            ok = False
            print(f"{label}: FAIL ({len(failures)} mismatches)")
            for f in failures[:10]:
                print(f"  {f}", file=sys.stderr)
        else:
            print(f"{label}: ok")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epcontrast",
        description="contrastive point-cloud pre-training at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key = value settings file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    p = sub.add_parser("gen", help="write synthetic labeled scenes")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scenes", type=int, required=True, help="number of scenes")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("segment", help="superpoint ids for one scene")
    common(p)
    p.add_argument("--in", required=True, help="input scene (EPCC or ASCII)")
    p.add_argument("--segments", type=int, default=None, help="target segment count")
    p.add_argument("--out", required=True, help="output file, one id per line")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("pretrain", help="contrastive pre-training")
    common(p)
    p.add_argument("--data", required=True, help="directory of scenes")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--loss", choices=KINDS, default="ep")
    p.add_argument("--history", default=None, help="loss CSV path (default: CKPT.history.csv)")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("probe", help="linear-probe accuracy of a checkpoint")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="directory of labeled scenes")
    p.add_argument("--label-fraction", type=float, default=None)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("bench", help="pair-count / byte scaling report")
    common(p)
    p.add_argument("--kind", choices=PAIR_KINDS, required=True)
    p.add_argument("--sizes", required=True, help="comma-separated point counts")
    p.add_argument("--m", type=int, default=32, help="segment count for the segment loss")
    p.add_argument("--c", type=int, default=32, help="embedding dimension")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--budget-mb", type=float, default=None,
                   help="accounted-byte budget in MiB; exceeding it is an error")
    p.add_argument("--count-only", action="store_true",
                   help="skip timing runs; counts and bytes only")
    p.add_argument("--csv", default=None, help="also write the report as CSV")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("check", help="run oracle and gradient self-tests")
    p.set_defaults(func=_cmd_check)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # runtime failures: message to stderr, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # the command alone, on glibc and unless GLIBC_TUNABLES is set, keeps freed
    # memory as the benchmark's tunables do: no heap trim, no mmap'd blocks
    if platform.libc_ver()[0] == "glibc" and "GLIBC_TUNABLES" not in os.environ:
        libc = ctypes.CDLL(None)  # the C library the interpreter runs on
        libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        libc.mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD
        libc.mallopt(-4, 0)  # M_MMAP_MAX
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
