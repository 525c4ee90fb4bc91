"""Spans for the benchmark's traced run, recorded from outside the program.

`Tracer.install` rebinds each traced cechcert function to a wrapper, in its
defining module and in every cechcert module that imported it by name (for
instance `scenarios.grid_components` and `nerve.smith_normal_form`), and
wraps `Region.mask` and `MatExpr.at` on their classes.  A wrapper records one
span (name, start, end, parent index) per call and keeps it in memory; counter
hooks read work counts off the arguments and results.  Nothing under `src/`
changes, and `uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

ROOT_SPAN = "verdict"


def _grid_counts(c, args, kwargs, res) -> None:
    c["nodes"] += res.n_nodes
    c["in_region"] += res.n_in_region
    c["components"] += res.n_components
    c["bytes"] += res.mask.nbytes + res.labels.nbytes


def _mask_counts(c, args, kwargs, res) -> None:
    c["points"] += len(res)


def _snf_counts(c, args, kwargs, res) -> None:
    A = np.asarray(args[0])
    c["max_rows"] = max(c["max_rows"], A.shape[0])
    c["max_cols"] = max(c["max_cols"], A.shape[1])
    c["nnz_in"] += int(np.count_nonzero(A))
    c["bigint_fallbacks"] += int(res.U.dtype == object)


def _delta_counts(c, args, kwargs, res) -> None:
    c["nnz"] += int(np.count_nonzero(res))


def _nerve_counts(c, args, kwargs, res) -> None:
    c["simplices"] += len(res.simplices)
    c["components"] += sum(len(comps) for comps in res.simplices.values())


def _validation_counts(c, args, kwargs, res) -> None:
    c["points"] += res.points_checked


def _emit_counts(c, args, kwargs, res) -> None:
    c["bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# (span name, module, attribute, counter hook); a dotted attribute names a
# method, wrapped on its class.  Counters whose name starts with "max_" keep a
# maximum, the others a sum.
TARGETS = [
    ("geometry.grid_components", "geometry", "grid_components", _grid_counts),
    ("geometry.Region.mask", "geometry", "Region.mask", _mask_counts),
    ("geometry.segment_convexity", "geometry", "segment_convexity", None),
    ("snf.smith_normal_form", "snf", "smith_normal_form", _snf_counts),
    ("snf.solve_integer", "snf", "solve_integer", None),
    ("nerve.build_nerve", "nerve", "build_nerve", _nerve_counts),
    ("nerve.delta_matrix", "nerve", "delta_matrix", _delta_counts),
    ("nerve.cohomology", "nerve", "cohomology", None),
    ("nerve.is_coboundary", "nerve", "is_coboundary", None),
    ("nerve.check_cover", "nerve", "check_cover", None),
    ("bundles.validate_cocycle", "bundles", "validate_cocycle", _validation_counts),
    ("bundles.validate_iso", "bundles", "validate_iso", _validation_counts),
    ("bundles.glue", "bundles", "glue", None),
    ("bundles.chern_cocycle", "bundles", "chern_cocycle", None),
    ("bundles.pullback", "bundles", "pullback", None),
    ("bundles.exp_sequence_push", "bundles", "exp_sequence_push", None),
    ("bundles.flat_class_test", "bundles", "flat_class_test", None),
    ("hexpr.MatExpr.at", "hexpr", "MatExpr.at", None),
    ("report.emit", "report", "emit_report", _emit_counts),
]
# every public function of cechcert.covers shares the span "covers"
COVERS_SPAN = "covers"
SPAN_NAMES = [t[0] for t in TARGETS] + [COVERS_SPAN]
COUNTERS = {
    "geometry.grid_components": ["nodes", "in_region", "components", "bytes"],
    "geometry.Region.mask": ["points"],
    "snf.smith_normal_form": ["max_rows", "max_cols", "nnz_in", "bigint_fallbacks"],
    "nerve.delta_matrix": ["nnz"],
    "nerve.build_nerve": ["simplices", "components"],
    "bundles.validate_cocycle": ["points"],
    "bundles.validate_iso": ["points"],
    "report.emit": ["bytes"],
}


class Tracer:
    """Records spans as [name, start, end, parent index] in `spans`."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, defaultdict] = defaultdict(lambda: defaultdict(int))
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """`fn` with a span per call; results and exceptions pass unchanged."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, self.clock(), None, self._open[-1] if self._open else None])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = self.clock()
            if count is not None:
                count(self.counters[name], args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "cechcert" or mod_name.startswith("cechcert."):
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def install(self) -> None:
        """Wrap every traced cechcert function and method (imports cechcert)."""
        import cechcert.cli  # noqa: F401  (loads every module that imports a target)

        for name, mod_name, attr, count in TARGETS:
            mod = importlib.import_module(f"cechcert.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original, count))
                self._undo.append((cls, meth, original))
            else:
                original = getattr(mod, attr)
                self._rebind(original, self.wrap(name, original, count))
        covers = importlib.import_module("cechcert.covers")
        for attr, fn in list(vars(covers).items()):
            if inspect.isfunction(fn) and fn.__module__ == covers.__name__ and not attr.startswith("_"):
                self._rebind(fn, self.wrap(COVERS_SPAN, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-verdict layer metrics from the spans of whole verdicts.

    `<span>.s` is the time inside the span (nested calls of the same name
    counted once), `<span>.self_s` the part not inside another traced span,
    `<span>.calls` the number of calls.  `scenarios.self_s` is the verdict
    time outside every traced span, and `scenarios.self_share` its share.
    Times, calls and summed counters are divided by the number of verdicts.
    """
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    mask_in_grid = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        own[name] += selfs[i]
        anc = parent
        while anc is not None and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc is None:
            total[name] += end - start
        if name == "geometry.Region.mask" and parent is not None and spans[parent][0] == "geometry.grid_components":
            mask_in_grid += end - start
    verdicts = calls[ROOT_SPAN]
    if verdicts == 0:
        raise ValueError("no verdict spans recorded")
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = total[name] / verdicts
        out[f"{name}.self_s"] = own[name] / verdicts
        out[f"{name}.calls"] = calls[name] / verdicts
    for name, keys in COUNTERS.items():
        for key in keys:
            value = counters.get(name, {}).get(key, 0)
            out[f"{name}.{key}"] = value if key.startswith("max_") else value / verdicts
    out["geometry.grid_components.mask_s"] = mask_in_grid / verdicts
    out["geometry.grid_components.label_s"] = out["geometry.grid_components.self_s"]
    out["scenarios.self_s"] = own[ROOT_SPAN] / verdicts
    out["scenarios.self_share"] = own[ROOT_SPAN] / total[ROOT_SPAN]
    return out
