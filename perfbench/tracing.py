"""Spans around the package's public functions, installed from outside.

``Tracer.install()`` replaces every public module-level function of each
layer module with a timing wrapper, in every ``wiener_gobf`` module
namespace that binds it (``from`` imports included), and ``uninstall()``
puts the originals back.  Private helpers such as ``pipeline._assemble``
are not wrapped: the public functions they call carry the spans, and their
own time counts as the caller's self time.  Nothing in the package is
edited.

A span records its name, start, end, parent span, operation id, the
(rows, cols) of its first array argument and of its result, and the
Gauss-Newton iteration count when the result carries one.  Spans are kept
in memory; ``write()`` saves them once, at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import warnings
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple, Optional

# The package modules that do the work; cli (file I/O only) and errors
# (no work) are not timed.
LAYERS = ("signals", "ratfun", "bla", "gobf", "polymodel", "pipeline",
          "experiments")
PACKAGE = "wiener_gobf"
WARNINGS = ("PoleStabilizationWarning", "RankDeficiencyWarning",
            "RepeatedPoleWarning", "IllConditionedBasisWarning")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int            # index of the enclosing span, -1 at the top
    op: int                # operation id within the run
    arg_shape: Optional[tuple]
    out_shape: Optional[tuple]
    iterations: Optional[int]


def _shape(value) -> Optional[tuple]:
    """(rows, cols) of an array, a signal record or a regression problem."""
    value = getattr(value, "psi", value)
    value = getattr(value, "samples", value)
    shape = getattr(value, "shape", None)
    if shape is None or len(shape) == 0:
        return None
    return (int(shape[0]), int(shape[1]) if len(shape) > 1 else 1)


def _first_shape(args) -> Optional[tuple]:
    for arg in args:
        shape = _shape(arg)
        if shape is not None:
            return shape
    return None


class Tracer:
    """Collects spans and per-operation warning counts for one run."""

    def __init__(self):
        self.spans: list = []
        self.warnings: list = []      # one Counter per traced operation
        self.op: Optional[int] = None
        self._stack: list = []
        self._bindings: list = []
        self._installed = False

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            return
        if not self._bindings:
            self._bindings = self._find_bindings()
        for ns, bound, _, wrapper in self._bindings:
            setattr(ns, bound, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for ns, bound, fn, _ in self._bindings:
            setattr(ns, bound, fn)
        self._installed = False

    def _find_bindings(self) -> list:
        """(namespace, attribute, function, wrapper) for every binding of a
        public layer function in the package's modules."""
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                  for layer in LAYERS}
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        bindings = []
        for layer, module in layers.items():
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                bindings.extend((ns, bound, fn, wrapper)
                                for ns in namespaces
                                for bound, value in vars(ns).items()
                                if value is fn)
        return bindings

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer._stack.pop()
                iterations = getattr(result, "iterations", None)
                tracer.spans[index] = Span(
                    name, start, end, parent, tracer.op, _first_shape(args),
                    _shape(result),
                    iterations if isinstance(iterations, int) else None)

        return wrapper

    # -- recording ----------------------------------------------------------

    @contextmanager
    def operation(self, op: int):
        """Trace one operation; its warnings are counted by category."""
        self.op = op
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield
        finally:
            self.op = None
            self.warnings.append(Counter(w.category.__name__ for w in caught))

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def fired(self) -> set:
        return {span.name for span in self.spans}

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-operation means of the per-layer metrics (see README.md)."""
        totals: Counter = Counter()
        for span, self_s in zip(self.spans, self.self_times()):
            layer, func = span.name.split(".", 1)
            for key in (layer, span.name):
                totals[f"{key}.self_s"] += self_s
                totals[f"{key}.calls"] += 1
            if span.name == "pipeline.predict":
                totals["pipeline.predict.total_s"] += span.end - span.start
            if span.iterations is not None:
                totals[f"{span.name}.iterations"] += span.iterations
            if span.out_shape is not None:
                totals[f"{span.name}.cells"] += span.out_shape[0] * span.out_shape[1]
            if span.name == "polymodel.fit_ls" and span.arg_shape is not None:
                rows, cols = span.arg_shape
                totals["polymodel.fit_ls.flops"] += 2 * rows * cols ** 2
        for counts in self.warnings:
            for category, count in counts.items():
                totals[f"warnings.{category}.count"] += count
        return {key: value / n_ops for key, value in totals.items()}
