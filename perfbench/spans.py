"""Span recorder that instruments epcontrast from outside the library.

A span is (run id, span id, parent span id, name, start ns, end ns). While a
traced pass runs, every target function is replaced by a wrapper in each
``epcontrast`` module that binds it by name, because callers look names up
in their own module: ``trainer`` imports ``encoder_forward``,
``ep_contrast``, ``kmeans_segments`` and ``make_view_pair`` by name, and
``losses`` imports ``as_matrix``. The wrappers pass arguments and results
through untouched and are removed when the pass ends, so untraced passes run
the library exactly as shipped. Spans stay in memory until :meth:`write`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "epcontrast"

# (module, function) pairs that get a span; the span is named "<layer>.<function>"
SPANNED = (
    ("pointcloud", "load_ascii"),
    ("pointcloud", "load_binary"),
    ("pointcloud", "make_view_pair"),
    ("superpoint", "kmeans_segments"),
    ("superpoint", "lloyd_kmeans"),
    ("encoder", "encoder_forward"),
    ("encoder", "encoder_backward"),
    ("losses", "ep_contrast"),
    ("losses", "ag_contrast"),
    ("losses", "channel_contrast"),
    ("losses", "point_infonce"),
    ("trainer", "pretrain"),
    ("trainer", "adam_step"),
    ("trainer", "linear_probe"),
)

# work counted at a span boundary: span name -> (count name, amount(args, result))
SPAN_COUNTS = {
    "encoder.encoder_forward": ("encoder.encoder_forward.rows", lambda a, r: a[1].n),
    "superpoint.lloyd_kmeans": ("superpoint.lloyd_kmeans.iters", lambda a, r: len(r[2])),
    "pointcloud.load_ascii": ("pointcloud.load.bytes", lambda a, r: os.path.getsize(a[0])),
    "pointcloud.load_binary": ("pointcloud.load.bytes", lambda a, r: os.path.getsize(a[0])),
}


class Tracer:
    """Records spans and counts for the traced passes of one benchmark run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.run_id][name] += amount

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn):
        counted = SPAN_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[span_id] = (self.run_id, span_id, parent, name, start, end)
            if counted is not None:
                self.count(counted[0], counted[1](args, result))
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, layer: str, attr: str, make) -> None:
        """Swap ``layer.attr`` for ``make(original)`` in every package module
        that binds the same object."""
        original = getattr(sys.modules[f"{PACKAGE}.{layer}"], attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != PACKAGE:
                continue
            if mod.__dict__.get(attr) is original:
                self._restore.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def _install(self) -> None:
        for layer, attr in SPANNED:
            name = f"{layer}.{attr}"
            self._replace_everywhere(layer, attr, functools.partial(self._spanned, name))
        self._replace_everywhere(
            "numcore", "as_matrix", functools.partial(self._counted, "numcore.as_matrix.calls")
        )
        # dataclass __init__ looks __post_init__ up on the class at each construction
        params_cls = sys.modules[f"{PACKAGE}.encoder"].MlpParams
        original = params_cls.__dict__["__post_init__"]
        self._restore.append((params_cls, "__post_init__", original))
        params_cls.__post_init__ = self._counted("encoder.MlpParams.validations", original)

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def traced(self, run_id: str):
        """Instrument the library for the duration of one pass."""
        self.run_id = run_id
        self.counts[run_id]  # a pass that counts nothing still reports zeros
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self.run_id = None

    # -- results -------------------------------------------------------------

    def run_ids(self) -> list[str]:
        return list(self.counts)

    def layer_metrics(self, run_id: str) -> dict[str, float]:
        """Self time and call count per span name, plus the counts, for one pass.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        spans = [s for s in self.spans if s[0] == run_id]
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                child_ns[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for _, span_id, _, name, start, end in spans:
            self_s[f"{name}.self_s"] += (end - start - child_ns[span_id]) * 1e-9
            calls[f"{name}.calls"] += 1
        return {**self_s, **calls, **self.counts[run_id]}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for run_id, span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"run": run_id, "id": span_id, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
