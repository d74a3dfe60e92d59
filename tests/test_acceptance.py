"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Desk-scale artifacts (scenes, pretrained encoders)
are built once in module-scoped fixtures and shared across criteria.
"""

import time

import numpy as np
import pytest

from epcontrast import (
    KMeansConfig,
    LossConfig,
    PointCloud,
    ProbeConfig,
    SyntheticSceneConfig,
    TrainConfig,
    bench_loss,
    brute_force_loss,
    channel_abs_cosine_mean,
    encoder_backward,
    encoder_forward,
    encoder_init,
    generate_scene,
    kmeans_segments_with_history,
    linear_probe,
    load_binary,
    pretrain,
    save_checkpoint,
)
from epcontrast.cli import cli_main
from epcontrast.errors import BudgetError
from epcontrast.rng import derive_seed, substream
from helpers import central_diff, eval_loss, random_instance, rel_err

pytestmark = pytest.mark.acceptance

DESK_SCENES = 32
DESK_HOLDOUT = 8
DESK_SCENE_CFG = dict(num_clusters=8, points_per_cluster=128)  # N = 1024
DESK_SEGMENTS = 32
DESK_EPOCHS = 20


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE criterion {criterion}: {status} — {detail}", flush=True)
    if not ok:
        pytest.fail(f"criterion {criterion}: {detail}")


# ---------------------------------------------------------------------------
# shared desk-scale artifacts
# ---------------------------------------------------------------------------


def desk_scenes(seed):
    cfg = SyntheticSceneConfig(**DESK_SCENE_CFG, seed=seed)
    return [
        generate_scene(cfg, substream(seed, i))
        for i in range(DESK_SCENES + DESK_HOLDOUT)
    ]


def desk_pretrain(scenes, seed, epochs=DESK_EPOCHS, lam=0.1):
    tcfg = TrainConfig(epochs=epochs, seed=seed, loss=LossConfig(lam=lam))
    kcfg = KMeansConfig(target_segments=DESK_SEGMENTS, seed=seed)
    return pretrain(scenes[:DESK_SCENES], tcfg, kcfg)


def desk_probe(params, scenes, fraction, seed):
    cfg = ProbeConfig(steps=200, label_fraction=fraction,
                      holdout_fraction=DESK_HOLDOUT / (DESK_SCENES + DESK_HOLDOUT),
                      seed=seed)
    return linear_probe(params, scenes, cfg)


@pytest.fixture(scope="module")
def desk_runs():
    """Per-seed artifacts for criteria 7-9: scenes, encoders, histories."""
    runs = {}
    for seed in range(5):
        scenes = desk_scenes(seed)
        ep_params, ep_history = desk_pretrain(scenes, seed)
        oet_params, _ = desk_pretrain(scenes, seed, epochs=1)
        scratch = encoder_init(9, 64, 32, derive_seed(seed, 1))
        runs[seed] = dict(scenes=scenes, ep=ep_params, ep_history=ep_history,
                          oet=oet_params, scratch=scratch)
    for seed in range(3):
        runs[seed]["lam0"] = desk_pretrain(runs[seed]["scenes"], seed, lam=0.0)[0]
    return runs


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Three seeds of `pretrain --loss ep` driven through the CLI."""
    root = tmp_path_factory.mktemp("cli_runs")
    runs = {}
    for seed in range(3):
        data = root / f"scenes_{seed}"
        ckpt = root / f"enc_{seed}.epck"
        assert cli_main([
            "gen", "--out", str(data), "--scenes", str(DESK_SCENES),
            "--set", f"seed={seed}",
        ]) == 0
        start = time.perf_counter()
        assert cli_main([
            "pretrain", "--data", str(data), "--out", str(ckpt), "--loss", "ep",
            "--set", f"seed={seed}", "--set", f"kmeans.segments={DESK_SEGMENTS}",
        ]) == 0
        elapsed = time.perf_counter() - start
        history_path = str(ckpt) + ".history.csv"
        rows = [line.split(",") for line in
                open(history_path, encoding="utf-8").read().splitlines()[1:]]
        losses = [float(r[2]) for r in rows]
        runs[seed] = dict(data=data, ckpt=ckpt, history_path=history_path,
                          losses=losses, elapsed=elapsed)
    return runs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    """Vectorized losses equal brute-force oracles to 1e-10 in all modes."""
    start = time.perf_counter()
    worst = 0.0
    checks = 0
    for kind in ("pc", "ag", "cc", "ep"):
        rng = substream(101, 0)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            c = int(rng.integers(2, 9))
            m = int(rng.integers(2, min(9, n + 1)))
            f1, f2, seg = random_instance(rng, n, c, m)
            for include_pos in (False, True):
                for normalize in (False, True):
                    cfg = LossConfig(
                        reduction="sum",
                        include_positive_in_denominator=include_pos,
                        normalize_rows=normalize,
                        normalize_channels=normalize,
                    )
                    got = eval_loss(kind, f1, f2, seg, cfg).value
                    want = brute_force_loss(kind, f1, f2, seg, cfg)
                    worst = max(worst, rel_err(got, want))
                    checks += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    report(1, ok, f"{checks} comparisons, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_gradient_checks():
    """Analytic gradients vs central differences, loss and end-to-end."""
    start = time.perf_counter()
    worst_loss = worst_e2e = 0.0
    for kind in ("pc", "ag", "cc", "ep"):
        rng = substream(102, 0)
        for _ in range(20):
            # loss-level gradients wrt both view embeddings
            n = int(rng.integers(4, 11))
            c = int(rng.integers(3, 7))
            m = int(rng.integers(2, 5))
            f1, f2, seg = random_instance(rng, n, c, m)
            cfg = LossConfig(reduction="mean")
            out = eval_loss(kind, f1, f2, seg, cfg)
            num1 = central_diff(lambda x: eval_loss(kind, x, f2, seg, cfg).value, f1)
            num2 = central_diff(lambda x: eval_loss(kind, f1, x, seg, cfg).value, f2)
            worst_loss = max(worst_loss, rel_err(out.grad_f1, num1),
                             rel_err(out.grad_f2, num2))

            # end-to-end through a small encoder at a generic parameter point
            cloud1 = PointCloud(rng.normal(size=(6, 3)), rng.uniform(0, 1, (6, 3)))
            cloud2 = PointCloud(rng.normal(size=(6, 3)), rng.uniform(0, 1, (6, 3)))
            seg6 = random_instance(rng, 6, 1, 2)[2]
            params = encoder_init(9, 5, 4, seed=int(rng.integers(1 << 30))).map(
                lambda a: a + rng.normal(scale=0.05, size=a.shape)
            )
            e1, c1 = encoder_forward(params, cloud1)
            e2, c2 = encoder_forward(params, cloud2)
            lo = eval_loss(kind, e1, e2, seg6, cfg)
            grads = encoder_backward(params, c1, lo.grad_f1).zip_map(
                encoder_backward(params, c2, lo.grad_f2), np.add
            )
            flat = np.concatenate([a.ravel() for a in grads.weights + grads.biases])
            vec = np.concatenate([a.ravel() for a in params.weights + params.biases])

            def total(v, params=params, cloud1=cloud1, cloud2=cloud2, seg6=seg6, kind=kind):
                arrays, offset = [], 0
                for a in params.weights + params.biases:
                    arrays.append(v[offset : offset + a.size].reshape(a.shape))
                    offset += a.size
                nw = len(params.weights)
                p = type(params)(tuple(arrays[:nw]), tuple(arrays[nw:]))
                x1, _ = encoder_forward(p, cloud1)
                x2, _ = encoder_forward(p, cloud2)
                return eval_loss(kind, x1, x2, seg6, cfg).value

            num = np.zeros_like(vec)
            h = 1e-5
            for i in range(vec.size):
                up, dn = vec.copy(), vec.copy()
                up[i] += h
                dn[i] -= h
                num[i] = (total(up) - total(dn)) / (2 * h)
            worst_e2e = max(worst_e2e, rel_err(flat, num))
    elapsed = time.perf_counter() - start
    ok = worst_loss <= 1e-5 and worst_e2e <= 1e-5 and elapsed < 120.0
    report(2, ok, f"loss-grad worst {worst_loss:.2e}, end-to-end worst "
                  f"{worst_e2e:.2e}, {elapsed:.1f}s")


def test_criterion_3_complexity_scaling():
    """Negative-pair and byte growth: quadratic (pc), linear (ag), flat (cc)."""
    start = time.perf_counter()
    sizes = [1000, 2000, 4000, 8000]
    reports = {
        "pc": bench_loss("pc", sizes, m=DESK_SEGMENTS, c=32, repeats=3, seed=3),
        "ag": bench_loss("ag", sizes, m=DESK_SEGMENTS, c=32, repeats=3, seed=3),
        "cc": bench_loss("cc", sizes, m=DESK_SEGMENTS, c=32, repeats=3, seed=3),
    }
    expected_exponent = {"pc": 2.0, "ag": 1.0, "cc": 0.0}
    problems = []
    for kind, rep in reports.items():
        want = expected_exponent[kind]
        if abs(rep.pair_exponent - want) > 0.05:
            problems.append(f"{kind} pair exponent {rep.pair_exponent:.3f} != {want}")
        if abs(rep.byte_exponent - want) > 0.05:
            problems.append(f"{kind} byte exponent {rep.byte_exponent:.3f} != {want}")
        for row in rep.rows:
            exact = {
                "pc": row.n * row.n - row.n,
                "ag": row.n * (DESK_SEGMENTS - 1),
                "cc": 32 * 32 - 32,
            }[kind]
            if row.negatives != exact:
                problems.append(f"{kind} N={row.n}: negatives {row.negatives} != {exact}")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 2 minutes")
    detail = (
        f"exponents pc {reports['pc'].pair_exponent:.3f}/"
        f"{reports['pc'].byte_exponent:.3f}, ag {reports['ag'].pair_exponent:.3f}/"
        f"{reports['ag'].byte_exponent:.3f}, cc {reports['cc'].pair_exponent:.3f}/"
        f"{reports['cc'].byte_exponent:.3f}, {elapsed:.1f}s"
    )
    report(3, not problems, detail if not problems else "; ".join(problems))


def test_criterion_4_memory_feasibility():
    """At a 256 MB accounted budget, full point-loss enumeration at N=65536
    must be rejected while the segment loss at M=2000 must fit.

    Known-failing by arithmetic: under the accounting rule this suite pins
    everywhere (8 bytes per scored similarity), the segment loss at
    N=65536, M=2000 needs 8*65536*2000 bytes (~1.0 GiB), which exceeds
    256 MiB, so the second half cannot hold. The assertion is kept as
    stated rather than bending the accounting; any budget of 1.05 GB or
    more separates the two losses as intended.
    """
    budget = 256 * 1024 * 1024
    problems = []
    try:
        bench_loss("pc", [65536], m=2000, c=32, byte_budget=budget, measure=False)
        problems.append("pc at N=65536 did not raise a budget error")
    except BudgetError:
        pass
    ag_bytes = 8 * 65536 * 2000
    try:
        bench_loss("ag", [65536], m=2000, c=32, byte_budget=budget, measure=False)
    except BudgetError:
        problems.append(
            f"ag at N=65536, M=2000 raised a budget error: accounted bytes "
            f"{ag_bytes} exceed the 256 MB budget {budget} by construction"
        )
    report(4, not problems,
           "pc rejected, ag fits under 256 MB" if not problems else "; ".join(problems))


def test_criterion_5_partition_invariants():
    """1000 seeded segmentations are valid partitions with monotone objective."""
    from test_superpoint import random_scene, two_blob_scene

    rng = substream(105, 0)
    worst_rise = -np.inf
    for run in range(1000):
        n = int(rng.integers(30, 151))
        m = int(rng.integers(2, 11))
        scene = random_scene(rng, n)
        seg, history = kmeans_segments_with_history(
            scene, KMeansConfig(target_segments=m, seed=run)
        )
        counts = np.bincount(seg.segment_of, minlength=seg.num_segments)
        assert counts.sum() == n and np.all(counts >= 1), f"run {run}: bad partition"
        if len(history) > 1:
            worst_rise = max(worst_rise, float(np.max(np.diff(history))))
    assert worst_rise <= 1e-9, f"objective rose by {worst_rise}"

    blob_rng = substream(106, 0)
    recovered = 0
    for seed in range(20):
        cloud, truth = two_blob_scene(blob_rng)
        seg, _ = kmeans_segments_with_history(
            cloud, KMeansConfig(target_segments=2, seed=seed)
        )
        labels = seg.segment_of
        agreement = max(np.mean(labels == truth), np.mean(labels == 1 - truth))
        recovered += agreement == 1.0
    ok = recovered == 20
    report(5, ok, f"1000 partitions valid, max objective rise {worst_rise:.1e}, "
                  f"blob recovery {recovered}/20")


def test_criterion_6_training_smoke(cli_runs):
    """CLI pretraining finishes fast and the loss trends down, 3/3 seeds."""
    problems = []
    details = []
    for seed, run in cli_runs.items():
        if run["elapsed"] >= 600.0:
            problems.append(f"seed {seed}: {run['elapsed']:.0f}s >= 10 minutes")
        losses = run["losses"]
        q = len(losses) // 4
        first, last = float(np.median(losses[:q])), float(np.median(losses[-q:]))
        details.append(f"seed {seed}: {first:.4f}->{last:.4f} in {run['elapsed']:.0f}s")
        if not last < first:
            problems.append(f"seed {seed}: final-quarter median {last} not below {first}")
    report(6, not problems, "; ".join(details + problems))


def test_criterion_7_inductive_bias(desk_runs):
    """Pre-trained probes beat random-init probes at 100% and 0.1% labels."""
    wins = {("ep", 1.0): 0, ("ep", 0.001): 0, ("oet", 1.0): 0, ("oet", 0.001): 0}
    for seed, run in desk_runs.items():
        for fraction in (1.0, 0.001):
            scratch_acc = desk_probe(run["scratch"], run["scenes"], fraction, seed)
            for name in ("ep", "oet"):
                acc = desk_probe(run[name], run["scenes"], fraction, seed)
                wins[(name, fraction)] += acc > scratch_acc
    problems = []
    if wins[("ep", 1.0)] < 4:
        problems.append(f"ep wins at 100%: {wins[('ep', 1.0)]}/5 < 4")
    if wins[("ep", 0.001)] < 4:
        problems.append(f"ep wins at 0.1%: {wins[('ep', 0.001)]}/5 < 4")
    if wins[("oet", 1.0)] < 3:
        problems.append(f"one-epoch wins at 100%: {wins[('oet', 1.0)]}/5 < 3")
    if wins[("oet", 0.001)] < 3:
        problems.append(f"one-epoch wins at 0.1%: {wins[('oet', 0.001)]}/5 < 3")
    detail = (f"ep {wins[('ep', 1.0)]}/5 at 100%, {wins[('ep', 0.001)]}/5 at 0.1%; "
              f"one-epoch {wins[('oet', 1.0)]}/5 and {wins[('oet', 0.001)]}/5")
    report(7, not problems, detail if not problems else "; ".join(problems))


def _holdout_channel_metric(params, scenes):
    return float(np.mean([
        channel_abs_cosine_mean(encoder_forward(params, s)[0])
        for s in scenes[DESK_SCENES:]
    ]))


def test_criterion_8_channel_decorrelation(desk_runs):
    """The channel loss drives mean |cos| between channel maps down."""
    problems = []
    drops_cc, drops_nocc = [], []
    for seed in range(3):
        run = desk_runs[seed]
        at_init = _holdout_channel_metric(run["scratch"], run["scenes"])
        with_cc = _holdout_channel_metric(run["ep"], run["scenes"])
        without = _holdout_channel_metric(run["lam0"], run["scenes"])
        drops_cc.append(at_init - with_cc)
        drops_nocc.append(at_init - without)
        if not with_cc < at_init:
            problems.append(f"seed {seed}: |cos| {with_cc:.3f} not below init {at_init:.3f}")
    if not np.mean(drops_nocc) < np.mean(drops_cc):
        problems.append(
            f"mean drop without channel loss {np.mean(drops_nocc):.3f} not smaller "
            f"than with it {np.mean(drops_cc):.3f}"
        )
    detail = (f"drops with channel loss {[f'{d:.3f}' for d in drops_cc]}, "
              f"without {[f'{d:.3f}' for d in drops_nocc]}")
    report(8, not problems, detail if not problems else "; ".join(problems))


def test_criterion_9_determinism(desk_runs, cli_runs, tmp_path):
    """Re-running criteria 5-8 pipelines with the same seeds is bit-identical,
    on the same numpy/BLAS build with the same BLAS thread count. Across
    thread counts the bytes hold at desk sizes (a unit test compares 1 and
    2 OpenBLAS threads) but not for every shape: the segment loss's block
    GEMMs at M = 2000 round differently under 1 and 2 threads."""
    from test_superpoint import random_scene

    problems = []

    # criterion 5 pipeline: segmentations replay identically
    rng = substream(105, 0)
    for run in range(50):
        n = int(rng.integers(30, 151))
        m = int(rng.integers(2, 11))
        scene = random_scene(rng, n)
        cfg = KMeansConfig(target_segments=m, seed=run)
        a, ha = kmeans_segments_with_history(scene, cfg)
        b, hb = kmeans_segments_with_history(scene, cfg)
        if not (np.array_equal(a.segment_of, b.segment_of) and ha == hb):
            problems.append(f"kmeans replay diverged at run {run}")
            break

    # criterion 6 pipeline: the CLI run replays to identical bytes
    seed0 = cli_runs[0]
    replay_ckpt = tmp_path / "replay.epck"
    code = cli_main([
        "pretrain", "--data", str(seed0["data"]), "--out", str(replay_ckpt),
        "--loss", "ep", "--set", "seed=0", "--set", f"kmeans.segments={DESK_SEGMENTS}",
    ])
    assert code == 0
    if replay_ckpt.read_bytes() != seed0["ckpt"].read_bytes():
        problems.append("CLI checkpoint bytes differ between identical runs")
    replay_hist = (str(replay_ckpt) + ".history.csv")
    if open(replay_hist, encoding="utf-8").read() != open(seed0["history_path"], encoding="utf-8").read():
        problems.append("CLI loss history differs between identical runs")

    # library pretraining replays bit-identically
    lib_params, lib_history = desk_pretrain(desk_runs[0]["scenes"], 0)
    lib_ckpt = tmp_path / "lib.epck"
    base_ckpt = tmp_path / "base.epck"
    save_checkpoint(lib_params, lib_ckpt)
    save_checkpoint(desk_runs[0]["ep"], base_ckpt)
    if lib_ckpt.read_bytes() != base_ckpt.read_bytes():
        problems.append("library checkpoint bytes differ between identical runs")
    if lib_history != desk_runs[0]["ep_history"]:
        problems.append("library pretrain history not reproducible")

    # the CLI is the library plus IO: training on the CLI's own (float32
    # quantized) scene files reproduces the CLI checkpoint bit for bit
    cli_scenes = [load_binary(p) for p in sorted(seed0["data"].glob("*.epcc"))]
    cross_params, _ = desk_pretrain(cli_scenes + desk_runs[0]["scenes"][DESK_SCENES:], 0)
    cross_ckpt = tmp_path / "cross.epck"
    save_checkpoint(cross_params, cross_ckpt)
    if cross_ckpt.read_bytes() != seed0["ckpt"].read_bytes():
        problems.append("library run on the CLI's scene files diverged from the CLI checkpoint")

    # criterion 7 pipeline: probe accuracy replays exactly
    acc_a = desk_probe(desk_runs[0]["ep"], desk_runs[0]["scenes"], 0.001, 0)
    acc_b = desk_probe(desk_runs[0]["ep"], desk_runs[0]["scenes"], 0.001, 0)
    if acc_a != acc_b:
        problems.append("probe accuracy not reproducible")

    # criterion 8 metric replays exactly
    m_a = _holdout_channel_metric(desk_runs[0]["ep"], desk_runs[0]["scenes"])
    m_b = _holdout_channel_metric(desk_runs[0]["ep"], desk_runs[0]["scenes"])
    if m_a != m_b:
        problems.append("channel metric not reproducible")

    # bench reports (count mode) replay exactly
    rep_a = bench_loss("ag", [1000, 2000, 4000, 8000], m=32, measure=False)
    rep_b = bench_loss("ag", [1000, 2000, 4000, 8000], m=32, measure=False)
    if rep_a.rows != rep_b.rows:
        problems.append("bench report rows not reproducible")

    report(9, not problems,
           "checkpoints, histories, probes, metrics, and reports replay bit-identically"
           if not problems else "; ".join(problems))
