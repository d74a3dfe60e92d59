"""Self-checks of the losses, shared by ``epcontrast check`` and the tests.

Two sweeps over random instances, each under every configuration in
:data:`ORACLE_CONFIGS` and for every loss kind: the vectorized value
against its brute-force oracle (relative error <= 1e-10), and the analytic
gradients against central differences (<= 1e-5). Each returns one
mismatch string per failed comparison, so an empty list means it passed.
"""

from __future__ import annotations

import numpy as np

from .losses import KINDS, LossConfig, _point_subset, brute_force_loss, contrast
from .rng import substream
from .superpoint import SegmentAssignment

ORACLE_TOL = 1e-10
GRADIENT_TOL = 1e-5

# every LossConfig option: reduction, temperature, row and channel normalization,
# the positive in the denominator, symmetric ag, sampled pc (a subset at N >= 4)
ORACLE_CONFIGS = tuple(
    LossConfig(
        reduction="sum",
        include_positive_in_denominator=include_pos,
        normalize_rows=normalize,
        normalize_channels=normalize,
    )
    for include_pos in (False, True)
    for normalize in (False, True)
) + (
    LossConfig(reduction="mean", include_positive_in_denominator=True),
    LossConfig(reduction="sum", normalize_rows=False, tau=0.5),
    LossConfig(reduction="mean", symmetric_ag=True),
    LossConfig(reduction="sum", symmetric_ag=True, include_positive_in_denominator=True),
    LossConfig(reduction="mean", neg_sample_count=2),
)
_SUBSET_SEED = 1347  # the stream that every evaluation in a sweep replays


def evaluate(kind, f1, f2, seg, cfg):
    """:func:`contrast` on one replayed stream: sampled "pc" draws one subset."""
    return contrast(kind, f1, f2, seg, cfg, substream(_SUBSET_SEED))


def oracle(kind, f1, f2, seg, cfg):
    """:func:`brute_force_loss` on the rows :func:`evaluate` reads: sampled pc's subset."""
    idx = _point_subset(len(f1), cfg.neg_sample_count, substream(_SUBSET_SEED))
    if kind == "pc" and idx is not None:
        f1, f2 = f1[idx], f2[idx]
    return brute_force_loss(kind, f1, f2, seg, cfg)


def rel_err(a, b, floor=1.0) -> float:
    """Largest elementwise |a - b| over max(floor, |a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def random_instance(rng, n, c, m):
    """Two (n, c) standard-normal views and a random covering assignment of
    the n points to m non-empty segments."""
    f1 = rng.normal(size=(n, c))
    f2 = rng.normal(size=(n, c))
    ids = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
    rng.shuffle(ids)
    return f1, f2, SegmentAssignment(ids.astype(np.int64), m)


def central_diff(fn, x, h=1e-5):
    """Dense central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        up = x.copy()
        up[idx] += h
        dn = x.copy()
        dn[idx] -= h
        grad[idx] = (fn(up) - fn(dn)) / (2.0 * h)
    return grad


def oracle_mismatches(rng, instances: int, *, kinds=KINDS, configs=ORACLE_CONFIGS) -> list[str]:
    """Loss values against :func:`brute_force_loss` on ``instances`` draws
    of N in [2, 64], C in [2, 8], M in [2, min(8, N)].

    ``kinds`` and ``configs`` narrow what runs on each instance, not the
    draws: the same stream gives the same instances for any subset."""
    failures = []
    for i in range(instances):
        n = int(rng.integers(2, 65))
        c = int(rng.integers(2, 9))
        m = int(rng.integers(2, min(9, n + 1)))
        f1, f2, seg = random_instance(rng, n, c, m)
        for cfg in configs:
            for kind in kinds:
                got = evaluate(kind, f1, f2, seg, cfg).value
                want = oracle(kind, f1, f2, seg, cfg)
                if rel_err(got, want) > ORACLE_TOL:
                    failures.append(
                        f"oracle mismatch: kind={kind} instance={i} {cfg} "
                        f"got={got!r} want={want!r}"
                    )
    return failures


def gradient_mismatches(rng, instances: int, *, kinds=KINDS, configs=ORACLE_CONFIGS) -> list[str]:
    """Gradients with respect to both views against central differences on
    ``instances`` draws of N in [4, 8], C in [3, 5], M in [2, 3]; ``kinds``
    and ``configs`` as in :func:`oracle_mismatches`."""
    failures = []
    for i in range(instances):
        n = int(rng.integers(4, 9))
        c = int(rng.integers(3, 6))
        m = int(rng.integers(2, 4))
        f1, f2, seg = random_instance(rng, n, c, m)
        for cfg in configs:
            for kind in kinds:
                out = evaluate(kind, f1, f2, seg, cfg)
                num1 = central_diff(lambda x: evaluate(kind, x, f2, seg, cfg).value, f1)
                num2 = central_diff(lambda x: evaluate(kind, f1, x, seg, cfg).value, f2)
                for name, grad, num in (("f1", out.grad_f1, num1), ("f2", out.grad_f2, num2)):
                    err = rel_err(grad, num)
                    if err > GRADIENT_TOL:
                        failures.append(
                            f"gradient mismatch: kind={kind} instance={i} {cfg} "
                            f"wrt {name} max rel err {err:.2e}"
                        )
    return failures
