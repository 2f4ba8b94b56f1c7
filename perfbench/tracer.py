"""Span tracing of the statgeom layers, installed from outside the package.

``Tracer.install`` replaces every public function of each layer module, and
every public method of the classes those modules define, with a wrapper that
records one span (name, start, end, parent).  The replacement is made in
every namespace that holds the original object (``product``, ``expfam`` and
``submersion`` import names from ``geometry``, ``expr`` imports from
``special``, the package root re-exports everything), and in the suite's
check registry.  ``numpy.linalg`` inv, solve and det are wrapped too; they
record no span, only a count attributed to the layer of the enclosing span.
``Tracer.restore`` puts every original object back.

Spans stay in memory until ``Tracer.collect`` summarizes them; the last
collected batch is kept for ``Tracer.dump``.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import Counter

import numpy.linalg

LAYERS = ("manifest", "expr", "special", "geometry", "product", "expfam",
          "submersion", "suite", "report")

# Private functions that the counters below need besides the public API: the
# submersion projector jets are that layer's inner hot spot.
EXTRA_PRIVATE = {"submersion": ("_projector_jets",)}

LINALG = ("inv", "solve", "det")

# Counter name -> span names it sums.  A span name absent from the package counts 0.
COUNTERS = {
    "expr.eval2_calls": ("expr.eval2",),
    "expr.eval_value_calls": ("expr.eval_value",),
    "geometry.field_jet_calls": (
        "geometry.MetricField.matrix", "geometry.MetricField.jet",
        "geometry.ExpressionConnection.coefficients",
        "geometry.ExpressionConnection.coefficients_jet",
    ),
    "geometry.derived_jet_calls": (
        "geometry.LeviCivitaConnection.coefficients",
        "geometry.LeviCivitaConnection.coefficients_jet",
        "geometry.ConjugateConnection.coefficients",
        "geometry.ConjugateConnection.coefficients_jet",
    ),
    "geometry.curvature_calls": ("geometry.curvature_tensor",),
    "expfam.fisher_builds": ("expfam.fisher_metric",),
    "submersion.oneill_calls": ("submersion.oneill_tensors_at",),
    "submersion.projector_calls": ("submersion.projectors_at", "submersion._projector_jets"),
    "manifest.build_context_calls": ("manifest.build_context",),
}

_MARK = "__perfbench_original__"


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Records spans around the statgeom layers while installed."""

    def __init__(self, package):
        self._package = package
        self._suite = sys.modules[f"{package.__name__}.suite"]
        self._spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._linalg: Counter = Counter()  # enclosing layer -> linalg calls
        self._patches: list[tuple] = []  # (holder, attribute, original)
        self.last_spans: list[list] = []
        # id(original) -> (span name, original, defining holder, attribute)
        self._targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            extra = EXTRA_PRIVATE.get(layer, ())
            for attr, value in vars(module).items():
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) and (not attr.startswith("_") or attr in extra):
                    self._targets[id(value)] = (f"{layer}.{attr}", value, module, attr)
                elif inspect.isclass(value) and not attr.startswith("_"):
                    for name, method in vars(value).items():
                        if not name.startswith("_") and inspect.isfunction(
                                getattr(method, "__func__", method)):
                            self._targets[id(method)] = (
                                f"{layer}.{attr}.{name}", method, value, name)
        self.names = sorted(name for name, _, _, _ in self._targets.values())

    def _holders(self):
        """Every namespace that may hold a wrapped object: modules and their classes."""
        prefix = self._package.__name__
        modules = [module for name, module in sorted(sys.modules.items())
                   if module is not None and (name == prefix or name.startswith(prefix + "."))]
        classes = [value for module in modules for value in vars(module).values()
                   if inspect.isclass(value) and value.__module__ == module.__name__]
        return modules + classes

    # ------------------------------------------------------------------
    # Wrappers

    def _span_wrapper(self, name, func):
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__qualname__ = getattr(func, "__qualname__", name)
        wrapper.__doc__ = func.__doc__
        setattr(wrapper, _MARK, func)
        return wrapper

    def _wrap(self, name, original):
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self._span_wrapper(name, original.__func__))
        return self._span_wrapper(name, original)

    def _linalg_wrapper(self, func):
        spans, stack, counts = self._spans, self._stack, self._linalg

        def wrapper(*args, **kwargs):
            counts[layer_of(spans[stack[-1]][0]) if stack else "outside"] += 1
            return func(*args, **kwargs)

        wrapper.__name__ = func.__name__
        setattr(wrapper, _MARK, func)
        return wrapper

    # ------------------------------------------------------------------
    # Install / restore

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {key: self._wrap(name, original)
                    for key, (name, original, _, _) in self._targets.items()}
        for holder in self._holders():
            for attr, value in list(vars(holder).items()):
                if id(value) in wrappers and self._targets[id(value)][1] is value:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, wrappers[id(value)])
        registry = self._suite.CHECKS
        for check, func in list(registry.items()):
            self._patches.append((registry, check, func))
            registry[check] = self._span_wrapper(f"suite.check.{check}", func)
        for attr in LINALG:
            original = getattr(numpy.linalg, attr)
            self._patches.append((numpy.linalg, attr, original))
            setattr(numpy.linalg, attr, self._linalg_wrapper(original))

    def restore(self) -> None:
        for holder, attr, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)
        self._patches.clear()

    def assert_pristine(self) -> None:
        """Raise unless the package, its check registry and numpy.linalg hold originals."""
        namespaces = [vars(holder) for holder in self._holders()]
        namespaces.append(self._suite.CHECKS)
        namespaces.append({attr: getattr(numpy.linalg, attr) for attr in LINALG})
        for namespace in namespaces:
            for attr, value in namespace.items():
                if hasattr(getattr(value, "__func__", value), _MARK):
                    raise AssertionError(f"{attr} is still a tracing wrapper")
        for name, original, holder, attr in self._targets.values():
            if vars(holder).get(attr) is not original:
                raise AssertionError(f"{name} is not the original object")

    # ------------------------------------------------------------------
    # Results

    def collect(self) -> dict:
        """Summarize and clear the spans recorded since the last collect.

        Per span name: self time (duration minus the time its child spans
        cover; spans of one thread nest, so children never overlap), call
        count and summed duration.  Also the linalg calls per enclosing layer.
        """
        if self._stack:
            raise RuntimeError("cannot collect inside an open span")
        spans = self._spans
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s, calls, total_s = Counter(), Counter(), Counter()
        for index, (name, start, end, _) in enumerate(spans):
            self_s[name] += (end - start) - covered[index]
            calls[name] += 1
            total_s[name] += end - start
        summary = {"self_s": self_s, "calls": calls, "total_s": total_s,
                   "linalg": Counter(self._linalg)}
        self.last_spans = list(spans)
        spans.clear()  # in place: the installed wrappers hold this list
        self._linalg.clear()
        return summary

    def dump(self, path, meta) -> None:
        """Write the last collected spans as gzipped JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent"],
                       "spans": self.last_spans}, handle)
