"""Span tracer for the layers of stochint, installed from outside the package.

Every public function and class of each layer module is wrapped.  A class is
wrapped at construction, arithmetic and its public methods, because much of
the cost (``SymCoeffs`` built by ``acc + term``) sits there and not in a free
function.  Layers bind each other's functions with ``from ... import``, so a
wrapper replaces every module attribute that is bound to the original
function, not only the one in its home module.

Each span records its parent.  Spans are aggregated in memory by
(parent, name) edge and written out once, when the traced command ends.
Self time is a span's duration minus the duration of its child spans; time
in unwrapped helpers (``grid``, ``errors``, private functions) counts in the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

PACKAGE = "stochint"
LAYERS = (
    "symtensor",
    "fock",
    "fock_ito",
    "operator_integral",
    "bernoulli",
    "montecarlo",
    "randomgen",
    "suites",
    "reports",
    "cli",
)
#: private methods that are still work: construction and arithmetic
DUNDERS = frozenset(
    {"__init__", "__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__neg__", "__matmul__", "__truediv__"}
)
#: counters kept as a maximum over calls; every other counter is a sum
MAX_COUNTERS = frozenset({"fock_ito.realization_dim_max", "fock_ito.operator_bytes"})


def targets():
    """Yield (span name, owner, attribute, member) for every callable to wrap.

    The span name is ``layer.qualname``, so two class attributes bound to one
    function (``__rmul__ = __mul__``) share a span, as they share a code object.
    """
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{attr}", module, attr, obj
            elif inspect.isclass(obj):
                for name, member in vars(obj).items():
                    fn = unwrap_member(member)
                    if inspect.isfunction(fn) and (not name.startswith("_") or name in DUNDERS):
                        yield f"{layer}.{fn.__qualname__}", obj, name, member


def unwrap_member(member):
    """The plain function behind a class attribute (classmethod, staticmethod)."""
    if isinstance(member, (classmethod, staticmethod)):
        return member.__func__
    return member


# --- work counters, computed from arguments and results --------------------


def _entries_built(counters, args, kwargs, result):
    values = args[3] if len(args) > 3 else kwargs.get("values", {})
    counters["symtensor.entries_built"] += len(values)


def _sym_tensor_pairs(counters, args, kwargs, result):
    f, g = args[:2]
    counters["symtensor.sym_tensor.pairs"] += len(f.values) * len(g.values)


def _measurable_rejected(counters, args, kwargs, result):
    counters["operator_integral.check_measurable.rejected"] += not result.ok


def _realization_size(counters, args, kwargs, result):
    dim = result.dim
    computed_bytes = result.grid.n * dim * dim * 16  # one complex128 matrix per cell
    counters["fock_ito.realization_dim_max"] = max(counters["fock_ito.realization_dim_max"], dim)
    counters["fock_ito.operator_bytes"] = max(counters["fock_ito.operator_bytes"], computed_bytes)


def _iterated_terms(counters, args, kwargs, result):
    coeffs, ensemble = args[:2]
    if coeffs.degree == 0:
        return
    terms = sum(1 for ms in coeffs.values if len(set(ms)) == len(ms))
    counters["montecarlo.iterated_samples.terms"] += terms
    # each strict multiset gathers one float64 increment column per factor
    counters["montecarlo.iterated_samples.gather_bytes"] += ensemble.paths * terms * coeffs.degree * 8


def _checks_rendered(counters, args, kwargs, result):
    counters["reports.checks_run"] += len(args[0].checks)


HOOKS = {
    "symtensor.SymCoeffs.__init__": _entries_built,
    "symtensor.sym_tensor": _sym_tensor_pairs,
    "operator_integral.check_measurable": _measurable_rejected,
    "fock_ito.wick_operator_process": _realization_size,
    "montecarlo.iterated_samples": _iterated_terms,
    "reports.render_json": _checks_rendered,
}
COUNTERS = (
    "symtensor.entries_built",
    "symtensor.sym_tensor.pairs",
    "operator_integral.check_measurable.rejected",
    "fock_ito.realization_dim_max",
    "fock_ito.operator_bytes",
    "montecarlo.iterated_samples.terms",
    "montecarlo.iterated_samples.gather_bytes",
    "reports.checks_run",
)


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self):
        self.stack = [["", 0.0]]  # frames of [span name, time spent in child spans]
        self.edges = {}  # (parent name, name) -> [calls, total_s, self_s]
        self.counters = Counter({name: 0 for name in COUNTERS})

    def wrap(self, name, fn):
        stack, edges, counters, clock = self.stack, self.edges, self.counters, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target and rebind every module attribute aliasing one."""
        replacements = {}
        for name, owner, attr, member in list(targets()):
            if inspect.isclass(owner):
                fn = unwrap_member(member)
                wrapped = self.wrap(name, fn)
                setattr(owner, attr, type(member)(wrapped) if fn is not member else wrapped)
            else:
                replacements[member] = self.wrap(name, member)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    setattr(module, attr, replacements[obj])

    def summary(self) -> dict:
        spans = {}
        for (_, name), (calls, _, self_s) in self.edges.items():
            span = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            span["calls"] += calls
            span["self_s"] += self_s
        return {
            "spans": dict(sorted(spans.items())),
            "edges": [[parent, name, *agg] for (parent, name), agg in sorted(self.edges.items())],
            "counters": dict(self.counters),
        }
