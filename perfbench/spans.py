"""Outside-in span tracer for the stochtaylor modules.

The program has no instrumentation of its own, so the traced benchmark run
wraps public functions from outside.  A function is patched at every module
that binds it by name (``planner.get_tensor`` and ``errors.get_tensor`` are
the same object as ``coefficients.get_tensor``), so calls through any import
path are counted.  Methods are patched on their class.

A span records calls, inclusive seconds and seconds spent in child spans;
self time is inclusive minus child time.  Hook bookkeeping runs after the
span's clock stops and counts towards no span's self time.  No span sits inside a
per-entry loop (``bar_coefficient``, ``legendre_poly``, ``eval_phi``): at
those call counts the wrapper would cost more than the work it measures.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

PACKAGE = "stochtaylor"

# (module, attribute) pairs on the workloads' call paths; "Class.method"
# patches the method on the class
SPANS = [
    ("coefficients", "get_tensor"),
    ("coefficients", "build_tensor"),
    ("coefficients", "exact_norm"),
    ("coefficients", "CoeffTensor.scaled_array"),
    ("coefficients", "CoeffTensor.squared_sum_float"),
    ("errors", "normalized_error"),
    ("errors", "exact_error"),
    ("planner", "minimal_order"),
    ("planner", "minimal_order_kfact"),
    ("planner", "scheme_plan"),
    ("planner", "reproduce_table"),
    ("sampling", "sample_ito"),
    ("sampling", "make_panel"),
    ("sampling", "wiener_increments"),
    ("sampling", "discretization_oracle"),
    ("sampling", "zetas_from_increments"),
    ("schemes", "StepContext.sample"),
    ("schemes", "step"),
    ("schemes", "integrate_batch"),
    ("schemes", "estimate_strong_order"),
    ("cli", "main"),
]


class Span:
    __slots__ = ("calls", "total", "child")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0


class Tracer:
    """Span statistics plus the counters the per-layer metrics need."""

    def __init__(self):
        self.spans = defaultdict(Span)
        # (parent span, child span) -> calls; gives planner probes per call
        self.edges = defaultdict(int)
        self.counters = defaultdict(float)
        self._stack = []  # one [name, child seconds, child calls] per open span

    def _wrap(self, name, fn, hook):
        stack, spans, edges, clock = self._stack, self.spans, self.edges, time.perf_counter

        def traced(*args, **kwargs):
            if stack:
                edges[(stack[-1][0], name)] += 1
            frame = [name, 0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                elapsed = clock() - t0
            finally:
                stack.pop()
                if stack:
                    stack[-1][2] += 1
            span = spans[name]
            span.calls += 1
            span.total += elapsed
            span.child += frame[1]
            if hook is not None:
                hook(self, args, kwargs, result, elapsed, frame[2])
            if stack:
                stack[-1][1] += clock() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every span in SPANS; raises if one no longer exists."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, attr in SPANS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            hook = _HOOKS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__, hook)))
                else:
                    setattr(cls, meth, self._wrap(name, raw, hook))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def snapshot(self) -> dict:
        return {
            "spans": {n: [s.calls, s.total, s.child] for n, s in self.spans.items()},
            "edges": {f"{p}>{c}": n for (p, c), n in self.edges.items()},
            "counters": dict(self.counters),
        }


def _paths_of(array) -> int:
    shape = getattr(array, "shape", ())
    return int(shape[0]) if len(shape) >= 2 else 1


def _build_hook(tr, args, kwargs, tensor, elapsed, n_children):
    values = tensor.values
    tr.counters["coefficients.entries"] += len(values)
    tr.counters["coefficients.nonzero"] += sum(1 for v in values.values() if v)


def _get_tensor_hook(tr, args, kwargs, tensor, elapsed, n_children):
    # the only span get_tensor can open is build_tensor: no child means a hit
    if n_children == 0:
        tr.counters["coefficients.get_tensor.hits"] += 1


def _sample_ito_hook(tr, args, kwargs, result, elapsed, n_children):
    tr.counters["sampling.sample_ito.paths"] += _paths_of(args[2].data)


def _step_hook(tr, args, kwargs, result, elapsed, n_children):
    tr.counters["schemes.step.paths"] += _paths_of(result)


def _table_hook(tr, args, kwargs, result, elapsed, n_children):
    tr.counters[f"planner.reproduce_table.{int(args[0])}.s"] += elapsed


_HOOKS = {
    "coefficients.build_tensor": _build_hook,
    "coefficients.get_tensor": _get_tensor_hook,
    "sampling.sample_ito": _sample_ito_hook,
    "schemes.step": _step_hook,
    "planner.reproduce_table": _table_hook,
}
