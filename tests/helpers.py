"""Shared test utilities: instance generators and finite differences."""

import numpy as np

from epcontrast import LossConfig, SegmentAssignment, contrast


def rel_err(a, b, floor=1.0):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def random_partition(rng, n, m):
    """Random covering assignment of n points to m non-empty segments."""
    ids = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
    rng.shuffle(ids)
    return SegmentAssignment(ids.astype(np.int64), m)


def random_instance(rng, n, c, m):
    f1 = rng.normal(size=(n, c))
    f2 = rng.normal(size=(n, c))
    return f1, f2, random_partition(rng, n, m)


def eval_loss(kind, f1, f2, seg, cfg: LossConfig, rng=None):
    return contrast(kind, f1, f2, seg, cfg, rng)


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
