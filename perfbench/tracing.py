"""Spans around calls into the solver's layers, recorded from outside it.

`Tracer.installed()` replaces each traced function at every binding the
solver looks it up through (module globals, names bound by
`from ... import`, and class attributes for methods) with a wrapper that
records a span, and puts every original back on exit.  The solver's own
code is not changed.  A span is (name, start, end, parent, instance, level):
`parent` is the index of the enclosing span (-1 at the top), `instance` the
index of the case being solved and `level` the augmentation level it
belongs to (None before level 1 starts).
"""

import functools
import importlib
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Traced functions, named `<module>.<attribute path>` under `bulkrobust`.
SPAN_NAMES = (
    "instance.parse_instance",
    "instance.Instance.requirement_holds",
    "instance.PlaneGraph.contract",
    "instance.PlaneGraph.trace_faces",
    "instance.induced_faces",
    "links.preprocess_step",
    "links.enumerate_typed_links",
    "links.lex_shortest_path",
    "lp.solve_link_lp",
    "lp.simplex_min",
    "lp.separation_oracle",
    "lp.max_flow_min_cut",
    "rounding.partition_scenarios",
    "rounding.round_face",
    "rounding.cover_intervals_exact",
    "setcover.exact_min_cover",
    "driver.solve",
    "driver.augment_step",
    "driver.solution_dict",
)

# Modules whose bindings the solve path looks functions up through.  The
# package `__init__`, `cli`, `oracle` and `generators` are not on it.
SOLVER_MODULES = ("instance", "links", "lp", "rounding", "setcover", "driver")

# Spans whose third positional argument is the augmentation level.
_LEVEL_ARG = {"driver.augment_step", "links.preprocess_step"}

# Parents by which requirement_holds time is split.
REQUIREMENT_PARENTS = ("parse_instance", "preprocess_step", "augment_step", "solve")


def _tableau_cells(lp):
    """Cells of the dense tableau `simplex_min` builds for this program."""
    m = len(lp.rows)
    if m == 0:
        return 0
    n = lp.objective.shape[0]
    artificial = sum(1 for _, b in lp.rows if b > 0)
    return (m + 1) * (n + m + artificial + 1)


# span name -> (counter name, increment from (args, result))
_COUNTS = {
    "links.preprocess_step": ("links.omega_size", lambda a, r: len(r.omega)),
    "links.enumerate_typed_links": ("links.link_count", lambda a, r: len(r)),
    "lp.simplex_min": ("lp.simplex_min.tableau_cells", lambda a, r: _tableau_cells(a[0])),
    "lp.separation_oracle": ("lp.separation_oracle.hits",
                             lambda a, r: r.violating is not None),
    "rounding.round_face": ("rounding.round_face.fallbacks", lambda a, r: bool(r.fallback)),
    "setcover.exact_min_cover": ("setcover.exact_min_cover.elements", lambda a, r: a[0]),
}


def resolve(name):
    """(owner, attribute) of a traced name: a module or a class, and a key."""
    parts = name.split(".")
    owner = importlib.import_module("bulkrobust." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def binding_sites(name):
    """The original function and every (owner, attribute) the solver finds it at."""
    owner, attr = resolve(name)
    original = vars(owner)[attr]
    if isinstance(owner, type):
        return original, [(owner, attr)]
    sites = []
    for mod_name in SOLVER_MODULES:
        module = importlib.import_module("bulkrobust." + mod_name)
        sites.extend((module, key) for key, value in vars(module).items()
                     if value is original)
    return original, sites


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.instance = None
        self.level = None
        self._sites = {}        # span name -> (original, [(owner, attribute)])
        self._stack = []
        self._wrappers = []

    def start_case(self, index):
        self.instance = index
        self.level = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = _COUNTS.get(name)
        sets_level = name in _LEVEL_ARG

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sets_level:
                self.level = args[2] if len(args) > 2 else kwargs["level"]
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.instance, self.level)
            if count is not None:
                self.counters[count[0]] += count[1](args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace inside the block; every binding is restored on exit."""
        try:
            for name in SPAN_NAMES:
                original, sites = binding_sites(name)
                self._sites[name] = (original, sites)
                wrapper = self._wrap(name, original)
                self._wrappers.append(wrapper)
                for owner, attr in sites:
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for original, sites in self._sites.values():
                for owner, attr in sites:
                    setattr(owner, attr, original)

    def leftover_wrappers(self):
        """Bindings in the solver modules that still hold one of this tracer's wrappers."""
        ids = {id(w) for w in self._wrappers}
        found = []
        for mod_name in SOLVER_MODULES:
            module = importlib.import_module("bulkrobust." + mod_name)
            owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
            found.extend(f"{mod_name}:{getattr(owner, '__name__', owner)}.{key}"
                         for owner in owners for key, value in vars(owner).items()
                         if id(value) in ids)
        return found


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so a parent's direct children never
    overlap and the covered part is the sum of their durations.
    """
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, counters):
    """Per-layer metrics of one traced pass: value by metric name."""
    own = self_times(spans)
    calls, total, self_total = Counter(), defaultdict(float), defaultdict(float)
    by_parent = defaultdict(float)
    longest_cover = 0.0
    for (name, start, end, parent, _, _), self_s in zip(spans, own):
        calls[name] += 1
        total[name] += end - start
        self_total[name] += self_s
        if name == "instance.Instance.requirement_holds" and parent >= 0:
            by_parent[spans[parent][0].rsplit(".", 1)[-1]] += end - start
        if name == "setcover.exact_min_cover":
            longest_cover = max(longest_cover, end - start)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = total[name]
        metrics[f"{name}.self_s"] = self_total[name]
    for parent in REQUIREMENT_PARENTS:
        metrics[f"instance.Instance.requirement_holds.by_{parent}"] = by_parent[parent]
    metrics["links.omega_size"] = counters["links.omega_size"]
    metrics["links.link_count"] = counters["links.link_count"]
    metrics["lp.simplex_min.tableau_cells"] = counters["lp.simplex_min.tableau_cells"]
    metrics["lp.separation_oracle.hit_rate"] = _ratio(
        counters["lp.separation_oracle.hits"], calls["lp.separation_oracle"])
    metrics["rounding.round_face.fallback_rate"] = _ratio(
        counters["rounding.round_face.fallbacks"], calls["rounding.round_face"])
    metrics["setcover.exact_min_cover.elements"] = counters["setcover.exact_min_cover.elements"]
    metrics["setcover.exact_min_cover.max_s"] = longest_cover
    return metrics


def _ratio(part, whole):
    return part / whole if whole else 0.0


def write_spans(spans, path):
    """One tab-separated line per span; times in seconds from the first span."""
    origin = spans[0][1] if spans else 0.0
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\tinstance\tlevel\n")
        for name, start, end, parent, inst, level in spans:
            fh.write(f"{name}\t{start - origin:.9f}\t{end - origin:.9f}\t"
                     f"{parent}\t{inst}\t{'' if level is None else level}\n")
