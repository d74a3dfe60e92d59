"""Empirical verification of the pair-count / memory scaling claims.

Memory is *accounted*, not probed from the allocator: one float64 entry
per similarity a loss evaluation scores (positives plus negatives), so

    accounted_bytes = 8 * (positive_count + negative_count).

The point and segment losses never hold that many scores at once: they
walk the queries in row blocks whose score buffer stays within a fixed
8 MiB, and exponentiate, normalize and differentiate inside each block's
buffer. Their measured (tracemalloc) peak is one block plus the N x C
embedding buffers: 0.131x the accounted bytes for pc at N = 4000 and 0.093x
for ag at N = 16384, M = 2000 (``BENCH_14.json``). Sampled pc scores s x s
pairs, s = round(sqrt(N (k + 1))). The channel loss's peak is set by its two
N x C gradient buffers, not by its C x C scores: 34.19 MB (2.04 N x C
buffers; no unit channel maps are held) against 8 KiB accounted at
N = 65536, C = 32 (``BENCH_14.json``).

The accounted figures are deterministic and platform-independent: quadratic
in N for the point loss, linear in N for the segment loss at fixed M, and
independent of N for the channel loss at fixed C. Wall times are medians
over repeated runs of the full loss (value and gradients) on random
embeddings. An optional byte budget rejects configurations whose
accounted buffer would not fit, which is how the infeasibility of
full-enumeration point-level contrast at scale is reproduced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError, DomainError
from .losses import KINDS, LossConfig, _lookup, contrast, count_pairs
from .rng import substream
from .superpoint import SegmentAssignment

BYTES_PER_ENTRY = 8


@dataclass(frozen=True)
class BenchRow:
    kind: str
    n: int
    m: int
    c: int
    positives: int
    negatives: int
    accounted_bytes: int
    wall_time_s: float


@dataclass(frozen=True)
class BenchReport:
    kind: str
    m: int
    c: int
    rows: tuple[BenchRow, ...]
    pair_exponent: float | None
    byte_exponent: float | None

    def csv_lines(self) -> list[str]:
        lines = ["kind,n,m,c,positives,negatives,accounted_bytes,wall_time_s"]
        for r in self.rows:
            lines.append(
                f"{r.kind},{r.n},{r.m},{r.c},{r.positives},{r.negatives},"
                f"{r.accounted_bytes},{r.wall_time_s:.6f}"
            )
        return lines

    def table_lines(self) -> list[str]:
        header = (
            f"{'N':>8} {'M':>6} {'C':>4} {'positives':>10} {'negatives':>12} "
            f"{'bytes':>14} {'median s':>10}"
        )
        lines = [
            f"loss kind: {self.kind}",
            "accounting: 8 bytes per scored similarity (positives + negatives);",
            "pc/ag score it in row blocks of at most 8 MiB, cc's peak is its N x C buffers",
            header,
        ]
        for r in self.rows:
            lines.append(
                f"{r.n:>8} {r.m:>6} {r.c:>4} {r.positives:>10} {r.negatives:>12} "
                f"{r.accounted_bytes:>14} {r.wall_time_s:>10.4f}"
            )
        pair = "n/a" if self.pair_exponent is None else f"{self.pair_exponent:.3f}"
        byte = "n/a" if self.byte_exponent is None else f"{self.byte_exponent:.3f}"
        lines.append(f"log-log exponent vs N: negative pairs {pair}, accounted bytes {byte}")
        return lines


def accounted_bytes(kind: str, n: int, m: int, c: int) -> int:
    pos, neg = count_pairs(kind, n, m, c)
    return BYTES_PER_ENTRY * (pos + neg)


def fit_exponent(sizes, measurements) -> float:
    """Least-squares slope of log(measurement) against log(size)."""
    sizes = np.asarray(sizes, dtype=np.float64)
    values = np.asarray(measurements, dtype=np.float64)
    if sizes.shape != values.shape or sizes.ndim != 1:
        raise DomainError("sizes and measurements must be 1-D and equally long")
    if sizes.size < 4:
        raise DomainError(f"need at least 4 points to fit an exponent, got {sizes.size}")
    if np.any(sizes <= 0) or np.any(values <= 0):
        raise DomainError("sizes and measurements must be strictly positive")
    ly = np.log(values)
    if np.all(ly == ly[0]):
        return 0.0
    lx = np.log(sizes)
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


def _balanced_segments(n: int, m: int) -> SegmentAssignment:
    return SegmentAssignment(np.arange(n, dtype=np.int64) % m, m)


def _run_once(kind: str, n: int, m: int, c: int, rng: np.random.Generator) -> float:
    f1 = rng.normal(size=(n, c))
    f2 = rng.normal(size=(n, c))
    seg = _balanced_segments(n, m) if KINDS[kind].segmented else None
    start = time.perf_counter()
    contrast(kind, f1, f2, seg, LossConfig(reduction="mean"))
    return time.perf_counter() - start


def bench_loss(
    kind: str,
    sizes: list[int],
    m: int = 32,
    c: int = 32,
    repeats: int = 3,
    seed: int = 0,
    byte_budget: int | None = None,
    measure: bool = True,
) -> BenchReport:
    """Scaling report for one loss kind over ascending point counts.

    Counts and accounted bytes come from the pair formulas; wall times are
    medians over ``repeats`` full evaluations (skipped when ``measure`` is
    False). A configuration whose accounted bytes exceed ``byte_budget``
    raises :class:`BudgetError` naming the offending size; unsorted sizes,
    fewer than 3 repeats of a measured run, a budget that is not positive
    and a negative seed raise :class:`ConfigError`.
    """
    _lookup(kind, pairs=True)
    if not sizes or list(sizes) != sorted(sizes):
        raise ConfigError(f"sizes must be a non-empty ascending list, got {list(sizes)}")
    if measure and repeats < 3:
        raise ConfigError(f"repeats must be >= 3, got {repeats}")
    if byte_budget is not None and byte_budget <= 0:
        raise ConfigError(f"byte budget must be positive, got {byte_budget}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rows = []
    for n in sizes:
        pos, neg = count_pairs(kind, n, m, c)
        nbytes = accounted_bytes(kind, n, m, c)
        if byte_budget is not None and nbytes > byte_budget:
            raise BudgetError(
                f"{kind} at N={n} (M={m}, C={c}) needs {nbytes} accounted bytes, "
                f"budget is {byte_budget}"
            )
        if measure:
            times = [
                _run_once(kind, n, m, c, substream(seed, n, r)) for r in range(repeats)
            ]
            wall = float(np.median(times))
        else:
            wall = 0.0
        rows.append(BenchRow(kind, n, m, c, pos, neg, nbytes, wall))
    pair_exp = byte_exp = None
    if len(sizes) >= 4:
        pair_exp = fit_exponent(sizes, [r.negatives for r in rows])
        byte_exp = fit_exponent(sizes, [r.accounted_bytes for r in rows])
    return BenchReport(kind, m, c, tuple(rows), pair_exp, byte_exp)
