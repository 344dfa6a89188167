"""In-memory span tracing around the public functions of diamray's modules.

The tracer replaces each public function (and public classmethod) of the
layer modules with a wrapper that records a span: name, start, end, parent
span and operation id, plus one number read from the result where a layer
metric needs it. Every binding of the original in the package is replaced,
so `diamray.verify.colorable` is traced as well as
`diamray.coloring.colorable`, and `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

PACKAGE = "diamray"
LAYERS = ("constructions", "geometry", "hypergraph", "coloring", "ramsey",
          "degeneracy", "verify")

# Scalar helpers called once per coordinate or distance: a span each would
# cost more than the work and fill memory, so they count as their caller's.
UNTRACED = {"geometry.close", "geometry.sq_dist", "geometry.parse_exact",
            "ramsey.mod8_color", "ramsey.mod8_near_boundary"}

# Span name -> number taken from (args, result); summed by the layer metrics.
MEASURES = {
    "geometry.sq_dist_matrix": lambda a, r: len(a[0]) * (len(a[0]) - 1) // 2,
    "hypergraph.Hypergraph.make": lambda a, r: r.n_edges,
    "coloring.colorable": lambda a, r: int(r is None),
    "ramsey.congruent_copies": lambda a, r: len(r),
    "degeneracy.min_extension_diameter": lambda a, r: len(r.restart_values),
    "degeneracy.far_pair_adversary": lambda a, r: len(r["restart_values"]),
    "degeneracy.apex_angle_audit": lambda a, r: r["trials"],
    "ramsey.obtuse_gadget_audit": lambda a, r: r["trials"],
}

NAME, START, END, PARENT, OP, MEASURE = range(6)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._restore: list = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        measure = MEASURES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if measure is not None:
                rec[MEASURE] = measure(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrapped = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if f"{layer}.{attr}" not in UNTRACED:
                        wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for cattr, desc in list(vars(obj).items()):
                        if isinstance(desc, classmethod) and not cattr.startswith("_"):
                            w = self._wrap(f"{layer}.{obj.__name__}.{cattr}",
                                           desc.__func__)
                            self._restore.append((setattr, obj, cattr, desc))
                            setattr(obj, cattr, classmethod(w))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._restore.append((setattr, mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, list):
                    # registries such as verify.CHECKS hold their own references
                    for i, item in enumerate(obj):
                        if isinstance(item, tuple) and any(
                                id(x) in wrapped for x in item):
                            self._restore.append((_setitem, obj, i, item))
                            obj[i] = tuple(wrapped.get(id(x), x) for x in item)

    def uninstall(self) -> None:
        while self._restore:
            op, target, key, original = self._restore.pop()
            op(target, key, original)


def _setitem(seq, i, value):
    seq[i] = value


def self_times(spans) -> list:
    """Per-span self time: duration minus the durations of its child spans.

    Spans of one thread nest, so children never overlap and their durations
    can simply be subtracted.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def outermost_time(spans, names) -> float:
    """Total duration of spans named in `names` not nested in another such span."""
    total = 0.0
    for s in spans:
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            total += s[END] - s[START]
    return total


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, run_s: float) -> dict:
    """Per-layer metrics of one traced pass whose operations took `run_s`."""
    own = self_times(spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s, t in zip(spans, own):
        out[s[NAME].split(".", 1)[0] + ".self_s"] += t
    out["bench.unattributed_s"] = run_s - sum(own)

    def total(name):
        return sum(s[MEASURE] for s in spans if s[NAME] == name)

    def count(name):
        return sum(1 for s in spans if s[NAME] == name)

    opt_s = outermost_time(spans, {"degeneracy.min_extension_diameter",
                                   "degeneracy.far_pair_adversary"})
    restarts = (total("degeneracy.min_extension_diameter")
                + total("degeneracy.far_pair_adversary"))
    out["degeneracy.optimizer_s"] = opt_s
    out["degeneracy.restarts"] = restarts
    out["degeneracy.s_per_restart"] = _ratio(opt_s, restarts)
    out["degeneracy.angle_trials_per_s"] = _ratio(
        total("degeneracy.apex_angle_audit"),
        outermost_time(spans, {"degeneracy.apex_angle_audit"}))
    out["ramsey.gadget_trials_per_s"] = _ratio(
        total("ramsey.obtuse_gadget_audit"),
        outermost_time(spans, {"ramsey.obtuse_gadget_audit"}))

    decisions = count("coloring.colorable")
    in_chi = sum(1 for s in spans if s[NAME] == "coloring.colorable"
                 and s[PARENT] >= 0
                 and spans[s[PARENT]][NAME] == "coloring.chromatic_number")
    out["coloring.decisions"] = decisions
    out["coloring.refuted"] = total("coloring.colorable")
    out["coloring.decisions_per_chi"] = _ratio(
        in_chi, count("coloring.chromatic_number"))

    edges = total("hypergraph.Hypergraph.make")
    out["hypergraph.edges_out"] = edges
    out["hypergraph.edges_per_s"] = _ratio(edges, out["hypergraph.self_s"])

    pairs = total("geometry.sq_dist_matrix")
    out["geometry.pointset_s"] = outermost_time(
        spans, {"geometry.PointSet.exact", "geometry.PointSet.from_floats"})
    out["geometry.pairs"] = pairs
    out["geometry.pairs_per_s"] = _ratio(pairs, out["geometry.self_s"])

    copies_s = outermost_time(spans, {"ramsey.congruent_copies"})
    copies = total("ramsey.congruent_copies")
    out["ramsey.copies_s"] = copies_s
    out["ramsey.copies_found"] = copies
    out["ramsey.copies_per_s"] = _ratio(copies, copies_s)
    out["ramsey.arrows_calls"] = count("ramsey.arrows")
    return out
