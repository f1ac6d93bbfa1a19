"""Span recorder that wraps multicred's public functions from outside.

:meth:`Tracer.install` replaces every public function (and every public
method of a public class) of the traced modules with a timing wrapper,
at every name the program can reach it through: the defining module,
each module that imported it with ``from ... import``, the package
namespace, and default-argument values such as
``features.build_user_vector(..., sentiment=analyze_sentiment)``.
:meth:`Tracer.uninstall` puts every original back.

Each call becomes a span ``[id, parent_id, name, start, end, rows, count]``
kept in memory. ``rows`` is the leading dimension of the first array
argument; ``count`` is a per-function result count (users loaded,
synthetic SMOTE rows, epochs run). Network functions are named by the
network they act on, told apart by input width: ``network.ae.*`` for the
768-wide autoencoder, ``network.clf.*`` for the 51-wide classifier.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from types import FunctionType

import numpy as np

TRACED_MODULES = (
    "dataset", "preprocess", "embedding", "autoencoder", "network", "features", "classifier",
)

_NETWORK_BY_WIDTH = {768: "ae", 51: "clf"}

_RESULT_COUNTS = {
    "dataset.load_dataset": lambda args, kwargs, result: len(result[1]),
    "features.smote": lambda args, kwargs, result: (
        len(result) - len(args[0] if args else kwargs["train"])
    ),
    "classifier.train": lambda args, kwargs, result: result[1].epochs_run,
}


def _rows(args) -> int | None:
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim >= 1:
            return int(a.shape[0]) if a.ndim == 2 else 1
    return None


def _network_label(name: str, args) -> str:
    spec = getattr(args[0], "spec", None) if args else None
    width = getattr(spec, "input_dim", None)
    if width is None:
        return name
    kind = _NETWORK_BY_WIDTH.get(width, f"net{width}")
    return "network." + kind + name[len("network"):]


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "multicred" or n.startswith("multicred."))]


class Tracer:
    """Records spans for calls into multicred while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers: dict[FunctionType, FunctionType] = {}
        for short in TRACED_MODULES:
            module = importlib.import_module("multicred." + short)
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
                elif isinstance(obj, type):
                    for attr, fn in list(vars(obj).items()):
                        if isinstance(fn, FunctionType) and not attr.startswith("_"):
                            self._patch(obj, attr, self._wrap(f"{short}.{name}.{attr}", fn))

        functions = []
        for module in _package_modules():
            for name, obj in list(vars(module).items()):
                if isinstance(obj, FunctionType):
                    functions.append(obj)
                    if obj in wrappers:
                        self._patch(module, name, wrappers[obj])
                elif isinstance(obj, type) and obj.__module__.startswith("multicred"):
                    functions.extend(f for f in vars(obj).values() if isinstance(f, FunctionType))
        for fn in functions:
            defaults = fn.__defaults__
            if defaults and any(isinstance(d, FunctionType) and d in wrappers for d in defaults):
                self._patch(fn, "__defaults__", tuple(
                    wrappers.get(d, d) if isinstance(d, FunctionType) else d for d in defaults
                ))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn: FunctionType) -> FunctionType:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_network = name.startswith("network.")
        count = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = _network_label(name, args) if is_network else name
            span = [len(spans), stack[-1][0] if stack else None, label, 0.0, 0.0,
                    _rows(args), None]
            spans.append(span)
            stack.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if count is not None:
                span[6] = count(args, kwargs, result)
            return result

        return wrapper

    # -- explicit spans ----------------------------------------------------

    def run_span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span that parents every span it causes."""
        return self._wrap(name, fn)(*args)


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds, rows and counts.

    Self time is a span's duration minus the durations of its direct
    children; children never outlive their parent, so they cannot overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span_id, parent, _, t0, t1, _, _ in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    table: dict[str, dict] = {}
    for span_id, _, name, t0, t1, rows, count in spans:
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0, "count": 0})
        row["calls"] += 1
        row["s"] += t1 - t0
        row["self_s"] += (t1 - t0) - child_time[span_id]
        row["rows"] += rows or 0
        row["count"] += count or 0
    return table
