"""Spans around polarnorm's public functions, recorded from outside the package.

Tracer.install() wraps each function in TRACED and rebinds every
reference to it in the loaded polarnorm modules, so a call through a
by-name import (`extremals` imports `poly_norm`, `cli` imports
`ratio_report` and `verify_instance`) is recorded as well.  Spans are kept
in memory; summarize() turns them into per-function counts and self times,
where a span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter_ns

import polarnorm.cli  # noqa: F401  (loads every module TRACED names)

# span name -> (module, attribute path); the layer is the name's first part
TRACED = {
    "forms.eval_batch": ("polarnorm.forms", "SymmetricForm.eval_batch"),
    "forms.eval_grad_batch": ("polarnorm.forms", "SymmetricForm.eval_grad_batch"),
    "norms.poly_norm": ("polarnorm.norms", "poly_norm"),
    "norms.mixed_norm": ("polarnorm.norms", "mixed_norm"),
    "norms.multilinear_norm": ("polarnorm.norms", "multilinear_norm"),
    "norms.ratio_report": ("polarnorm.norms", "ratio_report"),
    "norms.project_l1_sphere": ("polarnorm.norms", "project_l1_sphere"),
    "norms.dual_align": ("polarnorm.norms", "dual_align"),
    "norms.radial_normalize": ("polarnorm.norms", "radial_normalize"),
    "bounds.applicable_bounds": ("polarnorm.bounds", "applicable_bounds"),
    "bounds.bound_best": ("polarnorm.bounds", "bound_best"),
    "extremals.verify_instance": ("polarnorm.extremals", "verify_instance"),
    "cli.verify_samples": ("polarnorm.cli", "verify_samples"),
}
# evaluation kernels: spans also record the number of points (rows)
KERNELS = ("forms.eval_batch", "forms.eval_grad_batch")
# an eval_batch call this large is start scoring, not one ascent step
BULK_ROWS = 1024

SPAN_FIELDS = ["id", "parent", "report", "name", "start_ns", "end_ns", "rows"]


def _lookup(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records one span per call of a TRACED function while installed."""

    def __init__(self):
        self.spans: list = []
        self.report = -1  # set by the caller before each report
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        kernel = name in KERNELS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = None
            if kernel:
                points = args[1]
                rows = points.shape[0] if points.ndim > 1 else 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (sid, parent, self.report, name, start, end, rows)

        return traced

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for name, (module, path) in TRACED.items():
            owner, attr = _lookup(module, path)
            fn = getattr(owner, attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
            if isinstance(owner, type):
                self._rebind(owner, attr, wrappers[id(fn)][1])
        for module in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "polarnorm"]:
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._rebind(module, attr, wrapper)

    def _rebind(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, out)


def summarize(spans) -> dict:
    """Per-function calls, points, bulk points and self seconds."""
    child_ns = [0] * len(spans)
    for sid, parent, _, _, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    table = {
        name: {"calls": 0, "points": 0, "bulk_points": 0, "self_s": 0.0, "total_s": 0.0}
        for name in TRACED
    }
    for sid, _, _, name, start, end, rows in spans:
        row = table[name]
        row["calls"] += 1
        row["total_s"] += (end - start) * 1e-9
        row["self_s"] += (end - start - child_ns[sid]) * 1e-9
        if rows is not None:
            row["points"] += rows
            if rows >= BULK_ROWS:
                row["bulk_points"] += rows
    return table

