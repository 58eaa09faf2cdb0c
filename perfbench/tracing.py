"""Spans and counters recorded from outside the program.

``Tracer.install`` wraps the public entry points of each ``commoncover``
module listed in ``SPANS`` and replaces the name in every module namespace
that imported it (``saturate`` lives in ``groupoids`` but is called through
``ball_system``, ``star_system`` and ``object_graphs``).  Methods are
replaced on their class.  ``Tracer.remove`` puts every original back.

Helpers called once per element (``side_of``, ``pair_id``, ``obj_compose``,
``GraphMorphism.violations`` ...) get no span: a span per call would cost
more than the work, and their time shows in the caller's self time.  The two
hottest methods, ``compose`` on the arrow classes and ``act`` on the local
systems, get a counter instead of a span, keyed by the innermost open span.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists, where
``parent`` indexes the enclosing span (-1 at top level) and ``op`` numbers
the CLI command the span belongs to.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# Span targets per module: module-level functions and "Class.method" names.
SPANS = {
    "cli": ["main", "load_graph", "load_morphism", "load_object_graph",
            "load_seeds", "write_json"],
    "refinement": ["common_cover_exists", "joint_refinement"],
    "universal_cover": ["build_alignment", "TreeAlignment.ensure_radius"],
    "groupoids": ["saturate"],
    "cover_builder": ["LocalSystem.check_axioms", "build_cover",
                      "extract_certificate"],
    "ball_system": ["build_ball_system_retrying", "build_ball_system",
                    "discover_atoms", "verify_witness"],
    "star_system": ["build_star_system_retrying", "build_star_system"],
    "graphs": ["is_covering", "fiber_product", "Graph.components",
               "Graph.restrict"],
    "regular": ["regular_common_cover", "factorize_regular"],
    "gluing": ["build_glued_cover", "enumerate_pairs", "gluing_weights",
               "assemble", "subdivide_graph", "contract_subdivided"],
    "object_graphs": ["close_star_maps", "build_object_cover"],
}

PACKAGE = "commoncover"

# Methods counted (not timed) on every class of the package that defines them.
COUNTED_METHODS = ("compose", "act")


def _span_key(module, target):
    """Metric-style span name: "<module>.<function>", with the class dropped
    from method names ("cover_builder.check_axioms")."""
    return "%s.%s" % (module, target.rsplit(".", 1)[-1])


def _probe_saturate(tracer, args, kwargs, result):
    tracer.sizes["groupoids.generators"] += len(args[0])
    tracer.sizes["groupoids.arrows"] += len(result.arrows)


def _probe_build_cover(tracer, args, kwargs, result):
    tracer.sizes["cover_builder.cover_vertices"] += len(result.graph.vertices)
    tracer.sizes["cover_builder.n_multiple"] += result.n_multiple


def _probe_enumerate_pairs(tracer, args, kwargs, result):
    tracer.sizes["gluing.faces"] += len(result.faces)


def _probe_write_json(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.sizes["cli.bytes_written"] += os.path.getsize(path)


# Size probes run after the call returns, inside the caller's span.
PROBES = {
    "groupoids.saturate": _probe_saturate,
    "cover_builder.build_cover": _probe_build_cover,
    "gluing.enumerate_pairs": _probe_enumerate_pairs,
    "cli.write_json": _probe_write_json,
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.counts = defaultdict(int)   # (method, innermost span name) -> calls
        self.sizes = defaultdict(int)    # probe metric -> summed size
        self._saved = []                 # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        probe = PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                probe(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(name, spans[stack[-1]][0] if stack else None)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        modules = _package_modules()
        for short, targets in SPANS.items():
            module = sys.modules["%s.%s" % (PACKAGE, short)]
            for target in targets:
                name = _span_key(short, target)
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(module, cls_name)
                    self._replace_method(cls, meth, self._span_wrapper(name, cls.__dict__[meth]))
                else:
                    original = getattr(module, target)
                    wrapper = self._span_wrapper(name, original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self._saved.append((m, attr, original))
                                setattr(m, attr, wrapper)
        for m in modules:
            for value in list(vars(m).values()):
                if not isinstance(value, type) or value.__module__ != m.__name__:
                    continue
                for meth in COUNTED_METHODS:
                    if meth in value.__dict__:
                        self._replace_method(value, meth,
                                             self._counter_wrapper(meth, value.__dict__[meth]))

    def _replace_method(self, cls, meth, wrapper):
        self._saved.append((cls, meth, cls.__dict__[meth]))
        setattr(cls, meth, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict:
        """Summed self time per span name: duration minus the durations of
        direct children (spans nest strictly in single-threaded code)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def child_counts(self, parent_name, child_name) -> list:
        """For each span called parent_name, how many direct children are
        called child_name."""
        index = {i: 0 for i, s in enumerate(self.spans) if s[0] == parent_name}
        for name, start, end, parent, op in self.spans:
            if name == child_name and parent in index:
                index[parent] += 1
        return list(index.values())

    def top_level_time(self) -> float:
        return sum(end - start for name, start, end, parent, op in self.spans
                   if parent < 0)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "counts": [[k[0], k[1], v] for k, v in sorted(
                           self.counts.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
                       "sizes": dict(self.sizes)}, fh)
            fh.write("\n")


def calibrate(calls=200000) -> dict:
    """Per-call cost in seconds of a span wrapper and of a counter wrapper,
    measured on a no-op function against the bare call."""
    tracer = Tracer()

    def noop(x):
        return x

    def per_call(fn):
        best = float("inf")
        for _ in range(3):
            tracer.spans.clear()
            t0 = time.perf_counter()
            for i in range(calls):
                fn(i)
            best = min(best, (time.perf_counter() - t0) / calls)
        return best

    bare = per_call(noop)
    return {"span": max(per_call(tracer._span_wrapper("calibration", noop)) - bare, 0.0),
            "counter": max(per_call(tracer._counter_wrapper("calibration", noop)) - bare, 0.0)}
