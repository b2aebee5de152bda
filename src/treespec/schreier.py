"""Schreier graphs of the level actions, their path-with-loops models, and
the coverings between levels and from Cayley balls.

Level-n vertices are binary strings of length n in lexicographic order
(0 < 1).  Each generator contributes exactly one edge (possibly a loop) per
vertex, so every level graph is 4-regular under the loops-count-once
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .actions import GENERATORS, _generator_table
from .config import DEFAULT_CONFIG, ResourceLimitError, RunConfig
from .config import _require_int, _require_int_radii
from .covering import CoveringMap
from .graphs import Edge, Multigraph, _slot_index
from .growth import BallEnumeration, _enumerate_at_depth, _leaf_images, comparison_depth
from .omega import OmegaWord


class NotAPathError(ValueError):
    pass


def _level_vertices(n: int) -> list[str]:
    """The level-n vertices, bit strings in the order of their integers."""
    spec = f"0{n}b"
    return [format(i, spec) for i in range(1 << n)]


def _check_level(n: int, config: RunConfig) -> None:
    _require_int("level", n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if 1 << n > config.max_vertices:
        raise ResourceLimitError(f"2^{n} vertices exceed cap {config.max_vertices}")


def _level_edges(w: OmegaWord, n: int) -> tuple[np.ndarray, ...]:
    """The edge table of level n, read off the generator permutations.

    Returns the endpoint arrays u, v and the generator index of every edge,
    one per orbit {i, g i} at its smaller end, generator by generator (the
    order of ``schreier_graph``), and ``ids[g, i]``, the g-edge at vertex i.
    """
    perms = _generator_table(w, n)
    gen, u = np.nonzero(perms >= np.arange(1 << n))
    v = perms[gen, u]
    ids = np.empty_like(perms)
    ids[gen, u] = ids[gen, v] = np.arange(len(u))
    return u, v, gen, ids


def schreier_graph(
    w: OmegaWord, n: int, config: RunConfig = DEFAULT_CONFIG
) -> Multigraph:
    """Level-n Schreier graph: one labeled edge {v, g v} per generator."""
    _check_level(n, config)
    vertices = _level_vertices(n)
    u, v, gen = _level_edges(w, n)[:3]
    edges = [
        Edge(vertices[i], vertices[j], label=GENERATORS[g])
        for i, j, g in zip(u.tolist(), v.tolist(), gen.tolist())
    ]
    return Multigraph(vertices, edges)


@dataclass(frozen=True)
class UpsilonSpec:
    """Model-graph descriptor: a finite level, a one-ended ray, or a
    two-sided line segment.

    ``middle_exception`` reproduces the variant with a single edge at
    position 2^(n-1) - 1 instead of a double one; it is off by default
    because directly computed level graphs contradict it (the discrepancy is
    surfaced, not hidden).
    """

    kind: str  # "finite" | "ray" | "line"
    size: int  # level n for finite; segment length for ray/line
    middle_exception: bool = False

    def __post_init__(self):
        if self.kind not in ("finite", "ray", "line"):
            raise ValueError(f"unknown kind {self.kind!r}")
        _require_int("level", self.size)
        if self.size < 1:
            raise ValueError("size must be >= 1")


def _mult(i: int) -> int:
    """Connecting-edge multiplicity between positions i and i+1."""
    return 2 if i % 2 == 1 else 1


def upsilon_graph(spec: UpsilonSpec) -> Multigraph:
    """Materialize a model graph or a finite segment of an infinite one.

    The vertices lo..hi form a path; each carries one loop, except the ends
    of a finite level and the end of a ray, which carry three.  Segment
    boundary vertices keep their interior degree deficit; no wrap-around
    edges are added.
    """
    n = int(spec.size)  # -n of an unsigned numpy int would wrap
    lo, hi, ends = {
        "finite": (0, (1 << n) - 1, (0, (1 << n) - 1)),
        "ray": (0, n, (0,)),
        "line": (-n, n, ()),
    }[spec.kind]
    exception_at = None
    if spec.kind == "finite" and spec.middle_exception:
        exception_at = (1 << (n - 1)) - 1
    edges: list[Edge] = []
    for v in ends:
        edges += [Edge(v, v)] * 3
    edges += [Edge(v, v) for v in range(lo, hi + 1) if v not in ends]
    for i in range(lo, hi):
        mult = 1 if i == exception_at and i % 2 == 1 else _mult(i)
        edges += [Edge(i, i + 1)] * mult
    return Multigraph(list(range(lo, hi + 1)), edges)


@dataclass(frozen=True)
class PathForm:
    """Canonical form of a path-with-loops multigraph: vertices in path
    order from the endpoint with the smaller original label, with per-vertex
    loop counts and multiplicities to the next vertex."""

    order: tuple
    loops: tuple[int, ...]
    multiplicities: tuple[int, ...]


def _path_order(
    size: int, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Path order, loop counts and multiplicities of a path with loops.

    The vertices are 0..size-1 and edge i joins u[i] to v[i].  The order
    starts at the end with the smaller index; loop counts are listed along
    it, and multiplicities between consecutive vertices.  Raises
    NotAPathError unless the non-loop edges form one simple path through
    every vertex.  It reads the graphs' slot index of the distinct non-loop pairs.
    """
    loop = u == v
    loops = np.bincount(u[loop], minlength=size)
    lo = np.minimum(u[~loop], v[~loop])
    hi = np.maximum(u[~loop], v[~loop])
    pairs, mult = np.unique(lo * size + hi, return_counts=True)
    if size == 1:
        return np.zeros(1, dtype=np.intp), loops, mult
    s = _slot_index(np.column_stack(np.divmod(pairs, size)), size)
    deg = np.diff(s.ptr)
    ends = np.flatnonzero(deg == 1)
    if len(ends) != 2 or deg.max() > 2:
        raise NotAPathError("non-loop edges do not form a simple path")
    # each reachable vertex's first and last distinct neighbour, the last -1 if it has one
    first = np.take(s.far, s.ptr[:-1], mode="clip").tolist()
    second = np.where(deg == 2, s.far[s.ptr[1:] - 1], -1).tolist()
    # every inner vertex has two neighbours, so the walk never turns back;
    # it stops early only at the far end of a path that misses a vertex
    prev, cur = -1, int(ends[0])
    order = [cur]
    for _ in range(size - 1):
        prev, cur = cur, first[cur] if first[cur] != prev else second[cur]
        if cur < 0:
            raise NotAPathError("non-loop edges are disconnected or cyclic")
        order.append(cur)
    path = np.array(order)
    steps = np.minimum(path[:-1], path[1:]) * size + np.maximum(path[:-1], path[1:])
    return path, loops[path], mult[np.searchsorted(pairs, steps)]


def _path_form(
    labels, order: np.ndarray, loops: np.ndarray, mult: np.ndarray
) -> PathForm:
    return PathForm(
        tuple(labels[i] for i in order.tolist()),
        tuple(loops.tolist()),
        tuple(mult.tolist()),
    )


def path_canonical_form(g: Multigraph) -> PathForm:
    """Canonical form of a path with loops; NotAPathError otherwise."""
    order, loops, mult = _path_order(g.n, *g.ends.T)
    # start from the end whose label sorts first as a string
    if str(g.vertices[order[-1]]) < str(g.vertices[order[0]]):
        order, loops, mult = order[::-1], loops[::-1], mult[::-1]
    return _path_form(g.vertices, order, loops, mult)


def level_path_form(
    w: OmegaWord, n: int, config: RunConfig = DEFAULT_CONFIG
) -> PathForm:
    """``path_canonical_form(schreier_graph(w, n, config))``, read off the
    generator permutations without building the graph."""
    _check_level(n, config)
    u, v = _level_edges(w, n)[:2]
    order, loops, mult = _path_order(1 << n, u, v)
    # equal-length bit strings sort as their integers: order[0] starts
    return _path_form(_level_vertices(n), order, loops, mult)


@dataclass(frozen=True)
class IsomorphismResult:
    isomorphic: bool
    mapping: Optional[dict] = None
    witness: Optional[str] = None

    def __bool__(self) -> bool:
        return self.isomorphic


def check_isomorphic(g: Multigraph, u: Multigraph) -> IsomorphismResult:
    """Compare two path-with-loops multigraphs position by position.

    Both canonical forms are compared in both path orientations; on success
    the vertex bijection is returned, otherwise the first mismatch.
    """
    if g.n != u.n:
        return IsomorphismResult(False, witness=f"vertex counts {g.n} != {u.n}")
    fg, fu = path_canonical_form(g), path_canonical_form(u)
    for flip in (False, True):
        loops = fu.loops[::-1] if flip else fu.loops
        mults = fu.multiplicities[::-1] if flip else fu.multiplicities
        order = fu.order[::-1] if flip else fu.order
        if fg.loops == loops and fg.multiplicities == mults:
            return IsomorphismResult(True, dict(zip(fg.order, order)))
    # report the first mismatch against the unflipped orientation
    for i in range(g.n):
        if fg.loops[i] != fu.loops[i]:
            return IsomorphismResult(
                False, witness=f"loop count mismatch at path position {i}: "
                f"{fg.loops[i]} != {fu.loops[i]}"
            )
        if i < g.n - 1 and fg.multiplicities[i] != fu.multiplicities[i]:
            return IsomorphismResult(
                False, witness=f"edge multiplicity mismatch at position {i}: "
                f"{fg.multiplicities[i]} != {fu.multiplicities[i]}"
            )
    return IsomorphismResult(False, witness="orientation mismatch")


def level_projection_covering(
    w: OmegaWord, m: int, n: int, config: RunConfig = DEFAULT_CONFIG
) -> CoveringMap:
    """Prefix covering from the level-m graph onto the level-n graph."""
    if not m > n >= 1:
        raise ValueError("need m > n >= 1")
    src = schreier_graph(w, m, config)
    tgt = schreier_graph(w, n, config)
    u, _, gen, _ = _level_edges(w, m)
    ids = _level_edges(w, n)[3]
    vertex_map = {v: v[:n] for v in src.vertices}
    # the g-edge at u lies over the g-edge at u's length-n prefix
    edge_map = dict(enumerate(ids[gen, u >> (m - n)].tolist()))
    return CoveringMap(src, tgt, vertex_map, edge_map)


@dataclass
class CayleyBall:
    """Radius-r ball of the group's Cayley graph with its natural map onto a
    level graph (evaluate every element at the rightmost level-n vertex)."""

    graph: Multigraph
    covering: CoveringMap
    enumeration: BallEnumeration
    radius: int
    level: int


def cayley_ball(
    w: OmegaWord, radius: int, level: int, config: RunConfig = DEFAULT_CONFIG
) -> CayleyBall:
    """Build the Cayley ball and its covering map onto the level graph.

    Interior vertices (word length < radius) carry their full degree-4 star;
    the covering map is a local isomorphism there.
    """
    _require_int_radii([radius])
    if radius < 1 or level < 1:
        raise ValueError("radius and level must be >= 1")
    # refuse a level over the cap before the enumeration, which costs more
    _check_level(level, config)
    # at least ``level`` deep, so that the enumeration's perms hold the level images
    depth = max(level, comparison_depth(w, 2 * radius + 1))
    enum = _enumerate_at_depth(w, radius, depth)
    tgt = schreier_graph(w, level, config)
    ids = _level_edges(w, level)[3]
    # element i maps to image[i], its image of the level vertex 1...1
    image = _leaf_images(enum, level, np.array([(1 << level) - 1]))[:, 0]
    # each g-edge at its smaller end (j == i: a loop; j == -1: outside the ball)
    u, gen = np.nonzero(enum.neighbors >= np.arange(len(image))[:, None])
    v = enum.neighbors[u, gen]
    edge_map = dict(enumerate(ids[gen, image[u]].tolist()))
    edges = [Edge(i, j, label=GENERATORS[g]) for i, j, g in np.stack((u, v, gen), 1).tolist()]
    graph = Multigraph(list(range(len(image))), edges)
    vertex_map = {i: tgt.vertices[x] for i, x in enumerate(image.tolist())}
    covering = CoveringMap(graph, tgt, vertex_map, edge_map, set(range(enum.sizes[radius - 1])))
    return CayleyBall(graph, covering, enum, radius, level)
