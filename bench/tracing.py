"""Span tracing of the cascade package from outside, without touching it.

Every public function of every cascade module is replaced by a wrapper at
each name it is bound under: the defining module's own attribute, the
package namespace and every module that imported it by name (for example
``scan.classify`` and ``analytic.solve_quartic``).  Calls made inside a
module go through its globals, so they are traced too.  A span records the
name, start, end, parent span and the exception class if the call raised.
Spans stay in memory until the run writes them out.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

#: modules whose public functions are wrapped; the layer of a span is the
#: module that defines the function
LAYERS = ("params", "characteristic", "bogoliubov", "analytic", "oracle",
          "observables", "scan", "cli")

#: the closed form's inner kernel, called about 66 times per matrix from
#: private helpers: a span per call would cost more than the kernel, so its
#: time stays in analytic.full_matrix
UNTRACED = ("analytic.f_kernel",)

#: public methods wrapped on their class (layer, class, method)
METHODS = (("bogoliubov", "BogoliubovMatrix", "to_dict"),)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, error)

        return traced

    def install(self) -> None:
        """Wrap every public function of the cascade modules at every name
        bound to it inside the package."""
        import cascade

        modules = {layer: sys.modules[f"cascade.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and f"{layer}.{attr}" not in UNTRACED):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in (cascade, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = vars(cls)[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{layer}.{meth}", fn))

    def span_cost(self, calls: int = 50000) -> float:
        """Seconds one traced call adds to the run, measured on a function
        that does nothing; the calibration spans are dropped."""
        def nothing():
            return None

        traced = self._wrap("calibration", nothing)
        clock = time.perf_counter
        mark = len(self.spans)
        t0 = clock()
        for _ in range(calls):
            nothing()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        del self.spans[mark:]
        return max(0.0, (t2 - t1) - (t1 - t0)) / calls

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    def summarize(self) -> "SpanSummary":
        return SpanSummary(self.spans)

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end [s], parent, error."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, error) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "error": error}) + "\n")


class SpanSummary:
    """Self times, call counts and error counts per span name."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.self_times = defaultdict(list)
        self.durations = defaultdict(list)
        self.errors = defaultdict(int)
        self.children_of = defaultdict(float)
        for i, (name, t0, t1, parent, error) in enumerate(spans):
            self.self_times[name].append(t1 - t0 - child[i])
            self.durations[name].append(t1 - t0)
            self.children_of[name] += child[i]
            if error is not None:
                self.errors[name] += 1

    def calls(self, name: str) -> int:
        return len(self.self_times.get(name, ()))

    def total_self(self, prefix: str = "") -> float:
        return sum(sum(v) for k, v in self.self_times.items()
                   if k.startswith(prefix))
