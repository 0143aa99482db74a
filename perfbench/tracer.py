"""Span tracing of scatterpoly from outside the program.

``Tracer.install`` wraps every public function of the six modules and
rebinds each ``scatterpoly.*`` attribute that holds it, so calls made
through any module's globals are seen; it also patches the public
methods of ``BivariatePoly``.  Wrappers call the original object, so
``lru_cache`` state is untouched and hit ratios come from its
``cache_info``.  A re-entrant call of a function already open on the
stack (``render_json`` recursing into itself) is folded into the outer
span.

Each closed span adds its duration to its parent's child time, so a
layer's self time is the sum over its spans of duration minus child
time.  Totals are exact for every span; the spans themselves are kept in
memory up to ``max_kept`` and written out by ``write_spans``.

perf_counter is CLOCK_MONOTONIC on Linux, so span times from a traced
CLI child process share the parent's clock.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("poly_algebra", "jacobi", "scattering", "quadrature", "transform", "cli")
MAX_KEPT_SPANS = 200_000


class Tracer:
    def __init__(self, max_kept: int = MAX_KEPT_SPANS) -> None:
        self.max_kept = max_kept
        self.inclusive = defaultdict(float)  # span name -> seconds, outermost calls
        self.calls = Counter()
        self.hits = Counter()
        self.layer_self = defaultdict(float)
        self.counters = Counter()
        self.spans: list[tuple] = []  # (job, id, parent, name, start, dur, self)
        self.dropped = 0
        self.job = -1
        self._stack: list[list] = []  # [id, child seconds]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _close(self, name: str, layer: str, span_id: int, t0: float, child: float) -> None:
        dur = time.perf_counter() - t0
        self._stack.pop()
        parent = -1
        if self._stack:
            self._stack[-1][1] += dur
            parent = self._stack[-1][0]
        self.inclusive[name] += dur
        self.layer_self[layer] += dur - child
        if len(self.spans) < self.max_kept:
            self.spans.append((self.job, span_id, parent, name, t0, dur, dur - child))
        else:
            self.dropped += 1

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Call fn inside a span; used for harness targets and job roots."""
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        self.calls[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, layer, span_id, t0, frame[1])

    def _wrap(self, fn, name: str, layer: str, hook=None):
        tracer = self
        cache_info = getattr(fn, "cache_info", None)
        open_ = [False]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_[0]:
                return fn(*args, **kwargs)
            if hook is not None:
                args = hook(tracer, args)
            before = cache_info().hits if cache_info else 0
            open_[0] = True
            try:
                return tracer.span(name, layer, fn, *args, **kwargs)
            finally:
                open_[0] = False
                if cache_info:
                    tracer.hits[name] += cache_info().hits - before

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the program's public functions and BivariatePoly's methods."""
        modules = [importlib.import_module("scatterpoly")] + [
            importlib.import_module(f"scatterpoly.{layer}") for layer in LAYERS
        ]
        wrapped = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                layer = getattr(obj, "__module__", "").rpartition(".")[2]
                is_function = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
                if attr.startswith("_") or not is_function or layer not in LAYERS:
                    continue
                if id(obj) not in wrapped:
                    name = f"{layer}.{obj.__name__}"
                    wrapped[id(obj)] = self._wrap(obj, name, layer, _HOOKS.get(name))
                self._restore.append((module, attr, obj))
                setattr(module, attr, wrapped[id(obj)])

        poly = importlib.import_module("scatterpoly.poly_algebra").BivariatePoly
        for attr, obj in list(vars(poly).items()):
            if attr.startswith("_") and attr not in _POLY_DUNDERS:
                continue
            raw = obj.__func__ if isinstance(obj, staticmethod) else obj
            if not isinstance(raw, types.FunctionType):
                continue
            name = f"poly_algebra.BivariatePoly.{attr}"
            wrapper = self._wrap(raw, name, "poly_algebra", _HOOKS.get(name))
            self._restore.append((poly, attr, obj))
            setattr(poly, attr, staticmethod(wrapper) if isinstance(obj, staticmethod) else wrapper)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "inclusive": dict(self.inclusive),
            "calls": dict(self.calls),
            "hits": dict(self.hits),
            "layer_self": dict(self.layer_self),
            "counters": dict(self.counters),
            "dropped": self.dropped,
        }

    def merge(self, summary: dict, spans: list) -> None:
        """Add a traced child process's totals and spans to this tracer's."""
        for key in ("inclusive", "layer_self"):
            for name, value in summary[key].items():
                getattr(self, key)[name] += value
        for key in ("calls", "hits", "counters"):
            getattr(self, key).update(summary[key])
        self.dropped += summary["dropped"]
        offset = self._next_id
        room = self.max_kept - len(self.spans)
        for job, span_id, parent, *rest in spans[:room]:
            parent = parent + offset if parent >= 0 else -1
            self.spans.append((job, span_id + offset, parent, *rest))
            self._next_id = max(self._next_id, span_id + offset + 1)
        self.dropped += max(0, len(spans) - room)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("job,id,parent,name,start_s,dur_s,self_s\n")
            for job, span_id, parent, name, start, dur, own in self.spans:
                fh.write(f"{job},{span_id},{parent},{name},{start:.9f},{dur:.9f},{own:.9f}\n")


def _count_target(tracer: Tracer, args: tuple) -> tuple:
    """Replace the sampled function with one that counts its calls."""
    if not args or getattr(args[0], "_perfbench_counted", False):
        return args
    f = args[0]
    if getattr(f, "harness_target", False):
        def counted(*a, **k):
            tracer.counters["transform.f_evals"] += 1
            return tracer.span("harness.target", "harness", f, *a, **k)
    else:
        def counted(*a, **k):
            tracer.counters["transform.f_evals"] += 1
            return f(*a, **k)
    counted._perfbench_counted = True
    return (counted,) + tuple(args[1:])


def _count_recurrence(tracer: Tracer, args: tuple) -> tuple:
    params, x = args[0], args[1]
    tracer.counters["jacobi.recurrence_points"] += params.degree * int(np.size(x))
    return args


def _count_products(tracer: Tracer, args: tuple) -> tuple:
    left, right = args[0], args[1]
    if isinstance(right, type(left)):
        tracer.counters["poly_algebra.coef_products"] += len(left.terms) * len(right.terms)
    return args


#: Per-function counters, keyed by span name.  The samplers' first argument
#: is the disk function the program evaluates.
_HOOKS = {
    "transform.expand": _count_target,
    "transform.solve_weighted_poisson": _count_target,
    "transform.expansion_residual": _count_target,
    "jacobi.jacobi_eval": _count_recurrence,
    "poly_algebra.BivariatePoly.__mul__": _count_products,
}

_POLY_DUNDERS = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__eq__"}
