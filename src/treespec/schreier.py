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
from .graphs import Multigraph, _from_ends, _slot_index
from .growth import BallEnumeration, _leaf_images, enumerate_ball
from .omega import OmegaWord


class NotAPathError(ValueError):
    pass


def _level_vertices(n: int) -> list[str]:
    """The level-n vertices, bit strings in the order of their integers."""
    spec = f"0{n}b"
    return [format(i, spec) for i in range(1 << n)]


def _check_level(n: int, config: RunConfig) -> int:
    """2^n, the size of level n, checked on the cap's bit length so a refusal builds no 2^n."""
    _require_int("level", n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n >= int(config.max_vertices).bit_length():
        raise ResourceLimitError(f"2^{n} vertices exceed cap {config.max_vertices}")
    return 1 << n


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


def _labelled_graph(
    vertices: list, u: np.ndarray, v: np.ndarray, gen: Optional[np.ndarray] = None
) -> Multigraph:
    """The graph on ``vertices`` whose edge i joins positions u[i] and v[i]
    and is labelled by generator gen[i], or unlabelled when ``gen`` is None."""
    ends = np.stack((u, v), axis=1, dtype=np.intp)
    labels = [None] * len(u) if gen is None else list(map(GENERATORS.__getitem__, gen.tolist()))
    return _from_ends(Multigraph, vertices, ends, labels)


def schreier_graph(
    w: OmegaWord, n: int, config: RunConfig = DEFAULT_CONFIG
) -> Multigraph:
    """Level-n Schreier graph: one labeled edge {v, g v} per generator."""
    _check_level(n, config)
    return _labelled_graph(_level_vertices(n), *_level_edges(w, n)[:3])


@dataclass(frozen=True)
class UpsilonSpec:
    """Model-graph descriptor: a finite level, a one-ended ray, or a
    two-sided line segment.

    ``middle_exception`` reproduces the variant of a finite level with a
    single edge at position 2^(n-1) - 1 instead of a double one; it is off by
    default because directly computed level graphs contradict it (the
    discrepancy is surfaced, not hidden).
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
        if self.middle_exception and self.kind != "finite":
            raise ValueError(f"a {self.kind} has no middle exception")


def _upsilon_span(spec: UpsilonSpec) -> tuple[int, int, tuple[int, ...]]:
    """First and last vertex of a model graph, and the ends that carry three loops."""
    n = int(spec.size)  # -n of an unsigned numpy int would wrap
    if spec.kind == "finite":  # only here 2^n: a ray or line of any size is capped cheaply
        return 0, (1 << n) - 1, (0, (1 << n) - 1)
    return (0, n, (0,)) if spec.kind == "ray" else (-n, n, ())


def upsilon_graph(spec: UpsilonSpec) -> Multigraph:
    """Materialize a model graph or a finite segment of an infinite one.

    The vertices lo..hi form a path with two edges i -- i+1 at odd i and one
    at even i; each carries one loop, except the ends of a finite level and
    the end of a ray, which carry three.  Segment boundary vertices keep
    their interior degree deficit; no wrap-around edges are added.
    """
    lo, hi, ends = _upsilon_span(spec)
    ends = np.array(ends, dtype=np.intp) - lo
    loops = np.concatenate((np.repeat(ends, 3), np.delete(np.arange(hi - lo + 1), ends)))
    mult = 1 + np.arange(lo, hi) % 2
    if spec.middle_exception:
        mult[hi // 2] = 1  # position 2^(n-1) - 1 of a finite level
    # the loops, then each step i -- i+1 as often as it occurs
    u = np.concatenate((loops, np.repeat(np.arange(hi - lo), mult)))
    v = u + (np.arange(len(u)) >= len(loops))
    return _labelled_graph(list(range(lo, hi + 1)), u, v)


@dataclass(frozen=True)
class PathForm:
    """Canonical form of a path-with-loops multigraph: vertices in path
    order from the endpoint with the smaller original label, with per-vertex
    loop counts and multiplicities to the next vertex."""

    order: tuple
    loops: tuple[int, ...]
    multiplicities: tuple[int, ...]


def _canonical_path(labels: list, u: np.ndarray, v: np.ndarray) -> PathForm:
    """Path form of the path with loops on the vertices ``labels``, edge i
    joining positions u[i] and v[i].

    The order starts at the end whose label sorts first as a string, at the
    end with the smaller position on a tie; loop counts are listed along it,
    and multiplicities between consecutive vertices.  Raises NotAPathError
    unless the non-loop edges form one simple path through every vertex.  It
    reads the graphs' slot index of the distinct non-loop pairs.
    """
    size = len(labels)
    loop = u == v
    loops = np.bincount(u[loop], minlength=size)
    lo = np.minimum(u[~loop], v[~loop])
    hi = np.maximum(u[~loop], v[~loop])
    pairs, mult = np.unique(lo * size + hi, return_counts=True)
    if size == 1:
        return PathForm(tuple(labels), tuple(loops.tolist()), ())
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
    mult = mult[np.searchsorted(pairs, steps)]
    if str(labels[order[-1]]) < str(labels[order[0]]):
        path, mult = path[::-1], mult[::-1]
    return PathForm(
        tuple(map(labels.__getitem__, path.tolist())),
        tuple(loops[path].tolist()),
        tuple(mult.tolist()),
    )


def path_canonical_form(g: Multigraph) -> PathForm:
    """Canonical form of a path with loops; NotAPathError otherwise."""
    return _canonical_path(g.vertices, *g.ends.T)


def level_path_form(
    w: OmegaWord, n: int, config: RunConfig = DEFAULT_CONFIG
) -> PathForm:
    """``path_canonical_form(schreier_graph(w, n, config))``, read off the
    generator permutations without building the graph."""
    _check_level(n, config)
    return _canonical_path(_level_vertices(n), *_level_edges(w, n)[:2])


@dataclass(frozen=True)
class LevelCertificate:
    """The outcome of the four permutation checks on a level's generator
    table; ``witness`` names the first check that failed and a vertex."""

    ok: bool
    witness: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _certify_table(perms: np.ndarray) -> LevelCertificate:
    """The four checks on the rows a, b, c, d of a level's generator table,
    each a permutation of the 2^n vertices.

    1. a is an involution with no fixed point.
    2. Each vertex is moved by none or by exactly two of b, c and d, and
       two that move it send it to the same vertex, so T = (B + C + D - I)/2
       is the permutation that sends it there.
    3. T fixes exactly two vertices, and T T is the identity.
    4. U = A T is one 2^n-cycle: U^(2^(n-1)) moves vertex 0 and U^(2^n) is
       the identity, both from n squarings.

    A perfect matching and a matching that misses two vertices, whose
    product is one cycle, alternate along one path between those two, so
    the graph is the Upsilon model: each T-edge is a double edge beside the
    third letter's loop, and each end carries three loops.  A and T span a
    representation of the infinite dihedral group in which U has the 2^n-th
    roots of unity as eigenvalues, so the Markov spectrum (A + 2T + I)/4 is
    ``spectra.level_spectrum(n)``.
    """
    a, b, c, d = perms
    vertex = np.arange(len(a))
    n = len(a).bit_length() - 1

    def name(i) -> str:
        return format(int(i), f"0{n}b")

    def fail(check: int, text: str) -> LevelCertificate:
        return LevelCertificate(False, f"check {check}: {text}")

    bad = np.flatnonzero((a == vertex) | (a[a] != vertex))
    if bad.size:
        i = bad[0]
        return fail(1, f"a fixes vertex {name(i)}" if a[i] == i else f"a a moves vertex {name(i)}")
    moved = perms[1:] != vertex
    count = moved.sum(axis=0)
    bad = np.flatnonzero(count % 2)
    if bad.size:
        return fail(2, f"vertex {name(bad[0])} is moved by {count[bad[0]]} of b, c and d")
    # the first and the last letter that moves a vertex, or c where none does
    t = np.where(moved[0], b, c)
    bad = np.flatnonzero(t != np.where(moved[2], d, c))
    if bad.size:
        return fail(2, f"the two letters that move vertex {name(bad[0])} send it apart")
    bad = np.flatnonzero(t[t] != vertex)
    if bad.size:
        return fail(3, f"T T moves vertex {name(bad[0])}")
    fixed = np.flatnonzero(t == vertex)
    # an involution of 2^n vertices fixes an even number of them: none, or four or more
    if len(fixed) > 2:
        return fail(3, f"T fixes {len(fixed)} vertices, not 2; the third is {name(fixed[2])}")
    if not fixed.size:
        return fail(3, f"T fixes no vertex, not 2; it moves vertex {name(0)}")
    power = a[t]
    for _ in range(n - 1):
        power = power[power]
    if power[0] == 0:
        return fail(4, f"the A T orbit of vertex {name(0)} is shorter than 2^n")
    power = power[power]
    bad = np.flatnonzero(power != vertex)
    if bad.size:
        return fail(4, f"(A T)^(2^n) moves vertex {name(bad[0])}")
    return LevelCertificate(True)


def level_certificate(
    w: OmegaWord, n: int, config: RunConfig = DEFAULT_CONFIG
) -> LevelCertificate:
    """Whether the level-n Schreier graph is the Upsilon model with the
    closed-form spectrum, by the four permutation checks of ``_certify_table`` on the
    generator permutations; no graph, path walk or tridiagonal is built."""
    _check_level(n, config)
    return _certify_table(_generator_table(w, n))


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
    # report the first mismatch against the unflipped orientation, which has one
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


def _onto_level(
    w: OmegaWord, level: int, source: Multigraph, u: np.ndarray, gen: np.ndarray,
    image: np.ndarray, interior: Optional[set],
) -> CoveringMap:
    """The covering of ``source`` onto the level graph, whose edge table it
    reads once: source vertex i lies over level vertex image[i], and source
    edge k, the gen[k]-edge at u[k], over the gen[k]-edge at image[u[k]]."""
    lu, lv, lgen, ids = _level_edges(w, level)
    vertices = _level_vertices(level)
    target = _labelled_graph(vertices, lu, lv, lgen)
    vertex_map = dict(zip(source.vertices, map(vertices.__getitem__, image.tolist())))
    edge_map = dict(enumerate(ids[gen, image[u]].tolist()))
    return CoveringMap(source, target, vertex_map, edge_map, interior)


def level_projection_covering(
    w: OmegaWord, m: int, n: int, config: RunConfig = DEFAULT_CONFIG
) -> CoveringMap:
    """Prefix covering from the level-m graph onto the level-n graph."""
    _require_int("level", m)
    _require_int("level", n)
    if not m > n >= 1:
        raise ValueError("need m > n >= 1")
    _check_level(m, config)
    _check_level(n, config)
    u, v, gen, _ = _level_edges(w, m)
    source = _labelled_graph(_level_vertices(m), u, v, gen)
    # each vertex lies over its length-n prefix
    return _onto_level(w, n, source, u, gen, np.arange(1 << m) >> (m - n), None)


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
    _require_int("level", level)
    if radius < 1 or level < 1:
        raise ValueError("radius and level must be >= 1")
    # refuse a level over the cap before the enumeration, which costs more
    _check_level(level, config)
    enum = enumerate_ball(w, radius)
    # element i maps to image[i], its image of the level vertex 1...1
    image = _leaf_images(enum, level, np.array([(1 << level) - 1]))[:, 0]
    # each g-edge at its smaller end (j == i: a loop; j == -1: outside the ball)
    u, gen = np.nonzero(enum.neighbors >= np.arange(len(image))[:, None])
    graph = _labelled_graph(list(range(len(image))), u, enum.neighbors[u, gen], gen)
    covering = _onto_level(w, level, graph, u, gen, image, set(range(enum.sizes[radius - 1])))
    return CayleyBall(graph, covering, enum, radius, level)
