"""Span tracing for the traced run, and the per-layer numbers derived from it.

The tracer wraps every public module-level function of the ``ghkit``
modules at every binding site: ``ghtree`` imports ``max_flow`` with
``from .maxflow import max_flow``, so patching ``ghkit.maxflow`` alone
would miss those calls.  All binding sites of one function share one
wrapper.  A layer is the module that defines the function, and a span is
named ``<layer>.<function>``.

Each span records its name, start, end, parent span and the instance it
belongs to (-1 during set-up).  Spans stay in memory until the run ends.
A span's self time is its duration minus the part of it that its child
spans cover.  Work counts come from call arguments and results only, so
they repeat exactly whenever the same instances run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict


# Work counts per span name: (count name, function of the bound call
# arguments and the result).
COUNTERS = {
    "maxflow.max_flow": ("arcs", lambda a, r: 2 * a["g"].m),
    "maxflow.brute_min_cut": ("shores", lambda a, r: 1 << (a["g"].n - 2)),
    "maxflow.lambda_matrix": (
        "pairs",
        lambda a, r: len(r) // 2,  # the result holds both orders of each pair
    ),
    "multiflow.cut_condition": ("shores", lambda a, r: (1 << (a["inst"].supply.n - 1)) - 1),
    "simplex.solve_lp": ("cells", lambda a, r: len(a["a_rows"]) * a["nvars"]),
    "embedding.check_weak_bag_minor": ("found", lambda a, r: int(bool(r[0]))),
    "minors.detect_terminal_minor": ("found", lambda a, r: int(r is not None)),
}


class Tracer:
    def __init__(self, package="ghkit"):
        self.package = package
        self.names = []  # span name table; spans refer to names by index
        self._name_ids = {}
        self.spans = []  # [name_id, start, end, parent, instance]
        self.stack = []
        self.instance = -1
        self.counts = defaultdict(int)  # "<span name>.<count>" -> total
        self._alloc = [0]
        self._wrappers = {}  # id(original) -> wrapper
        self._patched = []  # (owner, attribute, original), in patch order

    @property
    def cap_allocs(self):
        return self._alloc[0]

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name):
        """Span-recording wrapper that returns and raises exactly as fn does."""
        nid = self._name_id(name)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self
        key, counter = COUNTERS.get(name, (None, None))
        sig = inspect.signature(fn) if counter else None
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [nid, clock(), 0.0, stack[-1] if stack else -1, tracer.instance]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts[f"{name}.{key}"] += counter(bound.arguments, result)
            return result

        return wrapper

    def _modules(self):
        p = self.package
        return [m for n, m in sorted(sys.modules.items()) if n == p or n.startswith(p + ".")]

    def install(self, modules=None):
        """Patch every binding site of every public function in `modules`
        (default: the loaded modules of the package), and count
        allocations of ``capacity.Cap``."""
        for mod in modules if modules is not None else self._modules():
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__ or ""
                if not (home == self.package or home.startswith(self.package + ".")):
                    continue
                if value.__name__.startswith("_") or value.__qualname__ != value.__name__:
                    continue
                wrapper = self._wrappers.get(id(value))
                if wrapper is None:
                    layer = home.rsplit(".", 1)[-1]
                    wrapper = self.wrap(value, f"{layer}.{value.__name__}")
                    self._wrappers[id(value)] = wrapper
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrapper)
            cap = vars(mod).get("Cap")
            if mod.__name__ == f"{self.package}.capacity" and cap is not None:
                self._count_allocations(cap)

    def _count_allocations(self, cls):
        original = cls.__init__
        cell = self._alloc

        def counting_init(obj, *args, **kwargs):
            cell[0] += 1
            original(obj, *args, **kwargs)

        self._patched.append((cls, "__init__", original))
        cls.__init__ = counting_init

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._wrappers.clear()

    def to_json(self):
        return {
            "fields": ["name", "start", "end", "parent", "instance"],
            "names": self.names,
            "spans": self.spans,
        }


def self_times(spans):
    """Self time of every span: its duration minus the union of its child
    spans' intervals (clipped to the span)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def derive(tracer, traced_instances, overhead_ratio):
    """Every per-layer number the trace supports, keyed by metric name.

    Per function: ``calls``, ``self_s``, each work count, and for counts
    named ``found`` the ``found_ratio`` (found / calls).  Per layer:
    ``self_s``.  Plus ``capacity.cap_allocs``,
    ``ghtree.build_gh_tree.flows_per_tree``,
    ``simplex.solves_per_instance`` and ``trace.overhead_ratio``.
    """
    spans, names = tracer.spans, tracer.names
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    layer_s = defaultdict(float)
    build = tracer._name_ids.get("ghtree.build_gh_tree")
    flow = tracer._name_ids.get("maxflow.max_flow")
    flows_in_builds = 0
    for s, st in zip(spans, selfs):
        name = names[s[0]]
        calls[name] += 1
        self_s[name] += st
        layer_s[name.split(".", 1)[0]] += st
        if s[0] == flow and s[3] >= 0 and spans[s[3]][0] == build:
            flows_in_builds += 1
    out = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name, (key, _) in COUNTERS.items():
        value = tracer.counts.get(f"{name}.{key}", 0)
        out[f"{name}.{key}"] = value
        if key == "found":
            out[f"{name}.found_ratio"] = value / calls[name] if calls[name] else 0.0
    for name in names:
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] = layer_s[layer]
    builds = calls.get("ghtree.build_gh_tree", 0)
    out["ghtree.build_gh_tree.flows_per_tree"] = flows_in_builds / builds if builds else 0.0
    solves = calls.get("simplex.solve_lp", 0)
    out["simplex.solves_per_instance"] = solves / traced_instances if traced_instances else 0.0
    out["capacity.cap_allocs"] = tracer.cap_allocs
    out["trace.overhead_ratio"] = overhead_ratio
    return out
