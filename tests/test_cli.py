"""End-to-end command-line behavior through cli_main."""

import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import epcontrast
from epcontrast import cli, load_binary, load_checkpoint, losses
from epcontrast.cli import DEFAULTS, SETTINGS, RunConfig, _build_parser, cli_main
from epcontrast.errors import ConfigError
from epcontrast.losses import LossConfig
from epcontrast.pointcloud import AugmentParams
from epcontrast.superpoint import KMeansConfig
from epcontrast.trainer import ProbeConfig, SyntheticSceneConfig, TrainConfig

CONFIG_CLASSES = (SyntheticSceneConfig, AugmentParams, KMeansConfig, LossConfig, TrainConfig,
                  ProbeConfig)
FLOAT_KEYS = sorted(k for k, (v, _) in DEFAULTS.items() if type(v) is float)


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigResolution:
    def test_defaults_cover_every_key(self):
        cfg = RunConfig.resolve()
        assert set(cfg.values) == set(DEFAULTS)

    def test_file_then_set_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nloss.tau = 2.0\ntrain.epochs = 5\n")
        cfg = RunConfig.resolve(path, ["loss.tau=3.0"])
        assert cfg.values["loss.tau"] == 3.0
        assert cfg.values["train.epochs"] == 5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("loss.bogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            RunConfig.resolve(path)

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("EPC_SEED", "1234")
        assert RunConfig.resolve().seed == 1234

    @pytest.mark.parametrize("source, where", [
        ("file", "{path}:2: "), ("env", "EPC_SEED: "), ("set", "--set: "),
    ])
    def test_bad_value_names_its_source(self, monkeypatch, tmp_path, source, where):
        path = tmp_path / "bad.cfg"
        path.write_text("# line 1\nseed = two\n")
        if source == "env":
            monkeypatch.setenv("EPC_SEED", "two")
        with pytest.raises(ConfigError) as err:
            RunConfig.resolve(path if source == "file" else None,
                              ["seed=two"] if source == "set" else ())
        assert str(err.value) == (
            where.format(path=path)
            + "config key 'seed': invalid literal for int() with base 10: 'two'"
        )

    def test_paper_default_values(self):
        cfg = RunConfig.resolve()
        assert cfg.values["loss.tau"] == 1.0
        assert cfg.values["loss.lambda"] == 0.1
        assert cfg.values["kmeans.segments"] == 2000


class TestSettingsTable:
    def test_every_key_default_is_its_fields_default(self):
        cfg = RunConfig.resolve()
        for cls in CONFIG_CLASSES:
            assert cfg.build(cls) == cls()
        # the one key whose CLI spelling differs: 0 stands for no sampling
        assert DEFAULTS["loss.neg_samples"][0] == 0
        assert cfg.build(LossConfig).neg_sample_count is None

    def test_every_field_has_exactly_one_key(self):
        covered = [(cls, name) for cls, name, _ in SETTINGS.values()]
        assert len(covered) == len(set(covered)) == 37
        settable = {
            (cls, f.name) for cls in CONFIG_CLASSES for f in fields(cls)
            if f.name not in ("seed", "loss", "augment", "loss_kind")
        }
        assert set(covered) - {(TrainConfig, "seed")} == settable

    def test_seed_reaches_every_seeded_class(self):
        cfg = RunConfig.resolve(sets=["seed=7"])
        for cls in (SyntheticSceneConfig, KMeansConfig, TrainConfig, ProbeConfig):
            assert cfg.build(cls).seed == 7

    @pytest.mark.parametrize("cls", [SyntheticSceneConfig, KMeansConfig, TrainConfig,
                                     ProbeConfig])
    def test_negative_seed_is_a_config_error(self, cls):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            RunConfig.resolve(sets=["seed=-1"]).build(cls)

    def test_printed_lines_read_back_to_the_same_values(self, capsys, tmp_path):
        sets = ["loss.tau=0.07", "loss.neg_samples=31", "augment.rot_axis=x",
                "loss.symmetric_ag=yes", "kmeans.tol=1e-06", "scene.points_per_cluster=4"]
        argv = ["gen", "--out", str(tmp_path / "s"), "--scenes", "1"]
        code, stdout, _ = run(capsys, *argv, *[a for s in sets for a in ("--set", s)])
        assert code == 0
        lines = [line[len("config: "):] for line in stdout.splitlines()
                 if line.startswith("config: ")]
        assert len(lines) == len(DEFAULTS)
        path = tmp_path / "echo.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert RunConfig.resolve(path).values == RunConfig.resolve(sets=sets).values
        code, again, _ = run(capsys, *argv, "--config", str(path))
        assert code == 0 and again == stdout

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, key, raw):
        cls, name, _ = SETTINGS[key]
        cfg = RunConfig.resolve(sets=[f"{key}={raw}"])
        with pytest.raises(ConfigError, match=name):
            cfg.build(cls)


class TestCommands:
    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "gen", "--nope")
        assert code == 2

    def test_gen_writes_scenes_and_prints_config(self, capsys, tmp_path):
        out = tmp_path / "scenes"
        code, stdout, _ = run(capsys, "gen", "--out", str(out), "--scenes", "3",
                              "--set", "scene.points_per_cluster=16")
        assert code == 0
        assert "config: scene.points_per_cluster = 16" in stdout
        files = sorted(out.glob("*.epcc"))
        assert len(files) == 3
        cloud = load_binary(files[0])
        assert cloud.labels is not None

    def test_gen_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "gen", "--out", str(a), "--scenes", "2",
            "--set", "scene.points_per_cluster=8")
        run(capsys, "gen", "--out", str(b), "--scenes", "2",
            "--set", "scene.points_per_cluster=8")
        for fa, fb in zip(sorted(a.glob("*.epcc")), sorted(b.glob("*.epcc"))):
            assert fa.read_bytes() == fb.read_bytes()

    def test_gen_rejects_positions_beyond_float32(self, capsys, tmp_path):
        out = tmp_path / "scenes"
        code, _, stderr = run(capsys, "gen", "--out", str(out), "--scenes", "2",
                              "--set", "scene.extent=1e39")
        assert code == 1
        assert "scene_000.epcc: position" in stderr and "does not fit" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("count", ["-2", "0"])
    def test_gen_rejects_a_scene_count_below_one(self, capsys, tmp_path, count):
        out = tmp_path / "scenes"
        code, stdout, stderr = run(capsys, "gen", "--out", str(out), "--scenes", count)
        assert code == 1
        assert f"--scenes must be >= 1, got {count}" in stderr and "wrote" not in stdout
        assert not out.exists()

    def test_failed_gen_removes_only_directories_it_created(self, capsys, tmp_path):
        out = tmp_path / "new" / "scenes"
        code, _, _ = run(capsys, "gen", "--out", str(out), "--scenes", "1",
                         "--set", "scene.extent=1e39")
        assert code == 1 and not (tmp_path / "new").exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("mine")
        code, _, _ = run(capsys, "gen", "--out", str(kept), "--scenes", "1",
                         "--set", "scene.extent=1e39")
        assert code == 1
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]

    def test_segment_clamps_and_warns(self, capsys, tmp_path):
        scene_dir = tmp_path / "s"
        run(capsys, "gen", "--out", str(scene_dir), "--scenes", "1",
            "--set", "scene.clusters=2", "--set", "scene.points_per_cluster=10")
        out = tmp_path / "seg.txt"
        code, _, stderr = run(capsys, "segment", "--in", str(scene_dir / "scene_000.epcc"),
                              "--segments", "50", "--out", str(out))
        assert code == 0
        assert "clamping" in stderr
        ids = [int(line) for line in out.read_text().splitlines()]
        assert len(ids) == 20
        assert sorted(set(ids)) == list(range(20))

    def test_pretrain_then_probe_smoke(self, capsys, tmp_path):
        scene_dir = tmp_path / "scenes"
        run(capsys, "gen", "--out", str(scene_dir), "--scenes", "4",
            "--set", "scene.clusters=3", "--set", "scene.points_per_cluster=24")
        ckpt = tmp_path / "enc.epck"
        code, stdout, _ = run(
            capsys, "pretrain", "--data", str(scene_dir), "--out", str(ckpt),
            "--loss", "ep",
            "--set", "train.epochs=1", "--set", "encoder.hidden=8",
            "--set", "encoder.dim=6", "--set", "kmeans.segments=4",
        )
        assert code == 0, stdout
        params = load_checkpoint(ckpt)
        assert [w.shape for w in params.weights] == [(8, 9), (8, 8), (6, 8)]
        history = (tmp_path / "enc.epck.history.csv").read_text().splitlines()
        assert history[0] == "step,epoch,loss,lr"
        assert len(history) == 5

        code, stdout, _ = run(capsys, "probe", "--ckpt", str(ckpt),
                              "--data", str(scene_dir), "--label-fraction", "0.5",
                              "--set", "probe.steps=50")
        assert code == 0
        assert "config: probe.label_fraction = 0.5" in stdout
        acc = float(stdout.strip().splitlines()[-1])
        assert 0.0 <= acc <= 1.0

    def test_bench_table_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "bench.csv"
        code, stdout, _ = run(capsys, "bench", "--kind", "ag",
                              "--sizes", "100,200,400,800", "--m", "8",
                              "--count-only", "--csv", str(csv_path))
        assert code == 0
        assert "log-log exponent" in stdout
        assert csv_path.read_text().startswith("kind,n,m,c")

    def test_bench_budget_error_exits_1(self, capsys):
        code, _, stderr = run(capsys, "bench", "--kind", "pc",
                              "--sizes", "1000,2000,4000,8000",
                              "--budget-mb", "1", "--count-only")
        assert code == 1
        assert "accounted bytes" in stderr

    @pytest.mark.parametrize("flags, message", [
        ("--sizes 8,x", "--sizes entry 'x' is not an integer"),
        ("--sizes 8 --budget-mb -1", "--budget-mb must be finite and positive, got -1.0"),
        ("--sizes 8 --budget-mb 0", "--budget-mb must be finite and positive, got 0.0"),
        ("--sizes 8 --budget-mb nan", "--budget-mb must be finite and positive, got nan"),
        ("--sizes 8 --set seed=-1", "seed must be >= 0, got -1"),
    ])
    def test_bad_bench_arguments_are_config_errors(self, capsys, flags, message):
        flags = flags.split()
        args = _build_parser().parse_args(["bench", "--kind", "pc", "--count-only", *flags])
        with pytest.raises(ConfigError) as err:
            args.func(args)
        assert str(err.value) == message
        code, _, stderr = run(capsys, "bench", "--kind", "pc", "--count-only", *flags)
        assert code == 1
        assert stderr == f"error: {message}\n"

    def test_non_finite_tau_is_a_config_error(self, capsys, tmp_path):
        scene_dir = tmp_path / "scenes"
        run(capsys, "gen", "--out", str(scene_dir), "--scenes", "1",
            "--set", "scene.points_per_cluster=8")
        code, _, stderr = run(capsys, "pretrain", "--data", str(scene_dir),
                              "--out", str(tmp_path / "x.epck"), "--set", "loss.tau=nan")
        assert code == 1
        assert "tau must be finite" in stderr
        assert not (tmp_path / "x.epck").exists()

    @pytest.mark.parametrize("argv, message", [
        ("segment --in {t}/none.epcc --out {t}/seg.txt --set kmeans.tol=nan", "error: tol must"),
        ("pretrain --data {t}/none --out {t}/x.epck --set loss.tau=nan", "error: tau must"),
        ("probe --ckpt {t}/none.epck --data {t}/none --set probe.lr=inf", "error: lr must"),
        ("pretrain --data {t}/none --out {t}/x.epck --loss ag --set kmeans.segments=1",
         "error: loss kind 'ag' needs target_segments >= 2"),
        ("pretrain --data {t}/none --out {t}/x.epck --loss cc --set encoder.dim=1",
         "error: loss kind 'cc' needs embed_dim >= 2"),
        ("pretrain --data {t}/none --out {t}/x.epck --set seed=-1", "error: seed must be >= 0"),
        ("gen --out {t}/out --scenes 2 --set seed=-1", "error: seed must be >= 0"),
        ("probe --ckpt {t}/none.epck --data {t}/none --set seed=-1", "error: seed must be >= 0"),
    ])
    def test_config_is_checked_before_any_file_is_read(self, capsys, tmp_path, argv, message):
        code, _, stderr = run(capsys, *argv.format(t=tmp_path).split())
        assert code == 1
        assert message in stderr

    def test_kind_choices_come_from_the_loss_table(self):
        top = _build_parser()._actions
        subcommands = next(a for a in top if a.choices and "bench" in a.choices)

        def choices(command, dest):
            actions = subcommands.choices[command]._actions
            return list(next(a for a in actions if a.dest == dest).choices)

        assert choices("pretrain", "loss") == list(losses.KINDS)
        assert choices("bench", "kind") == list(losses.PAIR_KINDS)

    def test_bench_point_loss_ignores_the_segment_count(self, capsys):
        code, stdout, _ = run(capsys, "bench", "--kind", "pc", "--sizes", "4,8,16,24")
        assert code == 0
        assert "       4     32   32          4           12            128" in stdout

    def test_bench_rejects_more_segments_than_points(self, capsys):
        code, _, stderr = run(capsys, "bench", "--kind", "ag", "--sizes", "16", "--m", "32",
                              "--count-only")
        assert code == 1
        assert "cannot split 16 points into 32 segments" in stderr

    def test_missing_scene_dir_is_runtime_error(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "pretrain", "--data", str(tmp_path / "void"),
                              "--out", str(tmp_path / "x.epck"))
        assert code == 1
        assert "error:" in stderr


class TestDeterminism:
    def test_desk_checkpoint_bytes_equal_under_one_and_two_blas_threads(self, capsys, tmp_path):
        """A 1-epoch desk ep pretrain, in a child process per OpenBLAS thread
        count, writes the same checkpoint bytes: the loss kernels' GEMM
        shapes at desk sizes (N = 1024, M = 32, C = 32) round alike under
        either count. The count is read once, at start-up, hence the
        children."""
        scene_dir = tmp_path / "scenes"
        assert run(capsys, "gen", "--out", str(scene_dir), "--scenes", "32")[0] == 0
        src = str(Path(epcontrast.__file__).resolve().parents[1])
        blobs = []
        for threads in ("1", "2"):
            ckpt = tmp_path / f"enc_{threads}.epck"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from epcontrast.cli import cli_main; sys.exit(cli_main(sys.argv[1:]))",
                 "pretrain", "--data", str(scene_dir), "--out", str(ckpt), "--loss", "ep",
                 "--set", "seed=0", "--set", "train.epochs=1", "--set", "kmeans.segments=32"],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(ckpt.read_bytes())
        assert blobs[0] == blobs[1]


class TestCheck:
    def test_check_passes_on_this_build(self, capsys):
        code, stdout, _ = run(capsys, "check")
        assert code == 0
        assert "oracle equivalence: ok" in stdout
        assert "gradient agreement: ok" in stdout

    def test_check_fails_on_an_oracle_mismatch(self, capsys, monkeypatch):
        real = losses.channel_contrast

        def off_by_1e6(f1, f2, cfg):
            out = real(f1, f2, cfg)
            return replace(out, value=out.value + 1e-6)

        monkeypatch.setattr(losses, "channel_contrast", off_by_1e6)
        code, stdout, stderr = run(capsys, "check")
        assert code == 1
        assert "oracle equivalence: FAIL" in stdout
        assert "kind=cc" in stderr

    def test_check_fails_on_a_sampled_point_loss_mismatch(self, capsys, monkeypatch):
        real = losses.point_infonce

        def off_when_sampled(f1, f2, cfg, rng=None):
            out = real(f1, f2, cfg, rng)
            return replace(out, value=out.value + 1e-6 * (cfg.neg_sample_count is not None))

        monkeypatch.setattr(losses, "point_infonce", off_when_sampled)
        code, stdout, stderr = run(capsys, "check")
        assert code == 1
        assert "oracle equivalence: FAIL" in stdout
        assert "kind=pc" in stderr and "neg_sample_count=2" in stderr


class TestAllocator:
    """``main`` sets glibc's trim threshold and mmap count at start-up, as
    the benchmark's GLIBC_TUNABLES do; nothing else touches the allocator."""

    @staticmethod
    def main_mallopt_calls(monkeypatch, libc="glibc"):
        """The mallopt calls that ``epcontrast --help`` makes on ``libc``."""
        calls = []

        class Mallopt:  # a foreign function: it takes argtypes and restype
            def __call__(self, param, value):
                calls.append((param, value))
                return 1

        class FakeLibc:
            mallopt = Mallopt()

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: FakeLibc())
        monkeypatch.setattr(cli.platform, "libc_ver", lambda: (libc, "2.36"))
        monkeypatch.setattr(sys, "argv", ["epcontrast", "--help"])
        with pytest.raises(SystemExit) as exit_:
            cli.main()
        assert exit_.value.code == 0
        return calls

    def test_main_keeps_freed_memory_on_glibc(self, monkeypatch, capsys):
        monkeypatch.delenv("GLIBC_TUNABLES", raising=False)
        assert self.main_mallopt_calls(monkeypatch) == [(-1, 2**31 - 1), (-4, 0)]

    @pytest.mark.parametrize("libc", ["", "musl"])
    def test_nothing_is_set_off_glibc(self, monkeypatch, capsys, libc):
        monkeypatch.delenv("GLIBC_TUNABLES", raising=False)
        assert self.main_mallopt_calls(monkeypatch, libc) == []

    def test_users_tunables_win(self, monkeypatch, capsys):
        monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=0")
        assert self.main_mallopt_calls(monkeypatch) == []

    def test_import_and_cli_main_leave_the_allocator_alone(self):
        # a fresh interpreter, so no earlier import has run; every library
        # that ctypes opens is recorded
        src = str(Path(epcontrast.__file__).resolve().parents[1])
        code = (
            "import ctypes\n"
            "opened = []\n"
            "real = ctypes.CDLL\n"
            "ctypes.CDLL = lambda *a, **k: opened.append(a) or real(*a, **k)\n"
            "import epcontrast, epcontrast.cli\n"
            "assert epcontrast.cli.cli_main(['--help']) == 0\n"
            "print('opened', opened)\n"
        )
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "opened []"
