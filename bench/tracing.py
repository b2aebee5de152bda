"""Per-layer tracing of ``treespec`` from outside the package.

Every public function of each traced module, a few methods, and three
private helpers that mark work worth counting are replaced by a wrapper that
records a span (name, parent, start, end).  The wrapper is installed in every
``treespec`` module that holds the original under any name, because modules
such as ``covering`` bind ``markov_weights`` at import; patching only the
defining module would lose the inner spans.  Spans stay in memory; self times
are computed once the pass ends, as each span's duration minus its children's.

The layers are the modules.  ``omega``, ``config`` and ``cli`` are not traced:
parsing a word takes well under a millisecond and the benchmark does not go
through the command line.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "actions",
    "growth",
    "presentation",
    "schreier",
    "graphs",
    "covering",
    "spectra",
    "serialize",
)

# (module, class, method, span name); span names are "<layer>.<name>"
METHODS = (
    ("actions", "TreeAutomorphism", "compose", "compose"),
    ("graphs", "Multigraph", "__init__", "construct"),
    ("graphs", "WeightedGraph", "__init__", "construct"),
    ("graphs", "Multigraph", "neighbors", "neighbors"),
    ("graphs", "Multigraph", "incident", "incident"),
    ("graphs", "Multigraph", "degree", "degree"),
    ("spectra", "IntervalUnion", "hausdorff_to_points", "hausdorff"),
)

# private helpers wrapped for their counts: (module, function, span name)
HELPERS = (
    ("growth", "_enumerate_at_depth", "enumerate_at_depth"),
    ("graphs", "_operator_from_matrix", "dense_operator"),
    ("covering", "_bfs_distances", "bfs"),
)

PUBLIC_RENAMES = {
    ("spectra", "markov_eigenvalues_banded"): "banded",
    ("spectra", "dihedral_reduction_check"): "dihedral",
}


class Tracer:
    """Span recorder and the per-layer metrics derived from its spans."""

    def __init__(self):
        # (name, parent index, start, end); a span in progress holds its name
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._cache_info = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"treespec.{name}") for name in LAYERS}
        replacements = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = PUBLIC_RENAMES.get((layer, attr), attr)
                replacements[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for layer, attr, name in HELPERS:
            obj = getattr(modules[layer], attr)
            replacements[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        self._cache_info = modules["actions"].generator_action.cache_info
        # every treespec module that binds a wrapped function gets the wrapper
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "treespec" or mod_name.startswith("treespec.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, self._wrap(f"{layer}.{name}", cls.__dict__[meth]))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = _COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(name)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, parent, start, end)
            if count is not None:
                count(counts, args, result, parent, spans)
            return result

        return wrapper

    # -- metrics ------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for _name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, _parent, start, end) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def metrics(self, solve_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass that took ``solve_s``."""
        self_s, calls = self.self_times()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in self_s.items() if name.split(".", 1)[0] == layer
            )
        for name in (
            "schreier.check_isomorphic",
            "schreier.cayley_ball",
            "graphs.construct",
            "covering.verify_covering",
            "covering.hulanicki_residual",
            "spectra.banded",
            "spectra.hausdorff",
            "spectra.dihedral",
        ):
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in (
            "actions.compose",
            "growth.enumerate_ball",
            "graphs.neighbors",
            "graphs.incident",
            "graphs.degree",
            "covering.fiber_count",
            "covering.hulanicki_residual",
            "covering.bfs",
        ):
            out[f"{name}.calls"] = calls.get(name, 0)
        info = self._cache_info()
        lookups = info.hits + info.misses
        out["actions.generator_action.cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        depths = calls.get("growth.enumerate_at_depth", 0)
        out["growth.depths_tried"] = depths
        # the census needs the last two depths tried; the rest is search
        out["growth.useful_depth_ratio"] = (
            2 * calls.get("growth.enumerate_ball", 0) / depths if depths else 0.0
        )
        records = calls.get("covering.hulanicki_residual", 0)
        out["covering.bfs_per_record"] = (
            calls.get("covering.fiber_count", 0) / records if records else 0.0
        )
        for key in (
            "actions.leaves_composed",
            "growth.ball_elements",
            "presentation.relator_letters",
            "schreier.vertices_built",
            "graphs.dense_bytes",
            "spectra.eigenvalues",
            "serialize.bytes",
        ):
            out[key] = self.counts.get(key, 0)
        out["trace.covered_ratio"] = sum(out[f"{l}.self_s"] for l in LAYERS) / solve_s
        return out

    def span_table(self) -> list[dict]:
        self_s, calls = self.self_times()
        return [
            {"span": name, "calls": calls[name], "self_s": self_s[name]}
            for name in sorted(self_s, key=self_s.get, reverse=True)
        ]


# -- counters: (counts, args, result, parent index, spans) ---------------------


def _count_compose(counts, args, result, parent, spans):
    counts["actions.leaves_composed"] += len(args[0].leaf_perm)


def _count_ball(counts, args, result, parent, spans):
    counts["growth.ball_elements"] += len(result.perms)


def _count_relators(counts, args, result, parent, spans):
    # relators_U recurses through itself; count only what reaches the caller
    if parent < 0 or spans[parent] != "presentation.relators_U":
        counts["presentation.relator_letters"] += sum(map(len, result))


def _count_vertices(counts, args, result, parent, spans):
    graph = getattr(result, "graph", result)
    counts["schreier.vertices_built"] += graph.n


def _count_dense(counts, args, result, parent, spans):
    counts["graphs.dense_bytes"] += args[0].nbytes


def _count_eigenvalues(counts, args, result, parent, spans):
    counts["spectra.eigenvalues"] += len(result)


def _count_bytes(counts, args, result, parent, spans):
    counts["serialize.bytes"] += len(result)


_COUNTERS = {
    "actions.compose": _count_compose,
    "growth.enumerate_at_depth": _count_ball,
    "presentation.relators_U": _count_relators,
    "schreier.schreier_graph": _count_vertices,
    "schreier.upsilon_graph": _count_vertices,
    "schreier.cayley_ball": _count_vertices,
    "graphs.dense_operator": _count_dense,
    "spectra.banded": _count_eigenvalues,
    "spectra.eigenvalues_selfadjoint": _count_eigenvalues,
    "serialize.serialize_graph": _count_bytes,
}
