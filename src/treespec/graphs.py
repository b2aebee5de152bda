"""Finite multigraphs, per-endpoint edge weights, and neighbor-sum operators.

Loops count once toward the degree throughout; the convention is recorded in
:data:`treespec.serialize.CONVENTIONS` and embedded in serialized artifacts.

A graph comes in one of two kinds.  A *row graph* is made by the
``Multigraph`` or ``WeightedGraph`` constructor and keeps the caller's edges,
whose ends may print unlike their vertex (``True`` at vertex ``1``).  A
*column graph* is made by :func:`_from_ends`, from the columns its builder
holds (the level and model graphs, Cayley balls, weighted copies and the
parser's column route): each end is its own vertex, and the graph keeps its
labels column, so its ``Edge`` rows are made only if a caller reads
``edges``.  :func:`_rows` tells the two apart.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat
from operator import itemgetter
from typing import Hashable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

VertexId = Hashable


class IsolatedVertexError(ValueError):
    pass


class RadiusTooSmallError(ValueError):
    pass


class Edge(NamedTuple):
    """Undirected edge; a loop has u == v and a single weight wu (= wv).

    A named tuple: read-only, equal and hashed by value, and made only for
    ``Multigraph.edges``, the view of a graph's columns, on its first read.
    """

    u: VertexId
    v: VertexId
    wu: complex = 1.0
    wv: complex = 1.0
    label: Optional[str] = None

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


# an Edge from an iterable of all five fields, with no Python frame per edge:
# ``list(map(_new_edge, zip(us, vs, wus, wvs, labels)))`` builds a column's edges
_new_edge = partial(tuple.__new__, Edge)


def _as_edge(e: tuple) -> Edge:
    """An edge from a tuple (u, v) or (u, v, label)."""
    u, v, *rest = e
    return Edge(u, v, label=rest[0] if rest else None)


class _Slots(NamedTuple):
    """Each (vertex, incident edge) pair once, a loop once, by vertex and edge id;
    vertex i owns slots ptr[i]:ptr[i + 1], ``far`` is the other end's position."""

    ptr: np.ndarray
    vertex: np.ndarray
    edge: np.ndarray
    far: np.ndarray


def _slot_index(ends: np.ndarray, n: int) -> _Slots:
    """The slot index of the (E, 2) endpoint table ``ends`` on vertices 0..n-1."""
    flat = ends.ravel()
    keep = np.ones(flat.size, dtype=bool)
    keep[1::2] = flat[::2] != flat[1::2]  # a loop keeps its u-end only
    end = np.flatnonzero(keep)
    end = end[np.argsort(flat[end], kind="stable")]  # edge order within a vertex
    vertex = flat[end]
    ptr = np.searchsorted(vertex, np.arange(n + 1))
    return _Slots(ptr, vertex, end >> 1, flat[end ^ 1])


def _vertex_index(vertices: list) -> dict:
    """Each vertex's position; ValueError on a repeated id."""
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise ValueError("duplicate vertex ids")
    return index


def _end_table(index: dict, u: Iterable, v: Iterable, count: int) -> np.ndarray:
    """The (E, 2) ``intp`` table of the positions of the ``count`` ends u[i]
    and v[i], resolved column by column; KeyError on an end not in ``index``."""
    ends = np.empty((count, 2), dtype=np.intp)
    for k, column in enumerate((u, v)):
        ends[:, k] = np.fromiter(map(index.__getitem__, column), np.intp, count)
    return ends


class Multigraph:
    """Unweighted multigraph with loops; edges may carry labels.  A graph is its
    columns: ``vertices``, ``labels`` and ``ends``, the read-only (E, 2) table of
    endpoint positions, which all adjacency reads.  ``edges`` is the caller's
    edges on a row graph, kept by this constructor, and on a column graph the
    ``Edge`` view of its columns, built on first read and kept."""

    def __init__(self, vertices: Sequence[VertexId], edges: Sequence[tuple]):
        vertices = list(vertices)
        index = _vertex_index(vertices)
        edges = [e if isinstance(e, Edge) else _as_edge(e) for e in edges]
        u, v = (map(itemgetter(k), edges) for k in (0, 1))
        try:
            ends = _end_table(index, u, v, len(edges))
        except KeyError:  # the scan names the first bad edge
            for i, e in enumerate(edges):
                if e.u not in index or e.v not in index:
                    raise ValueError(f"edge {i}: {e} references unknown vertex") from None
            raise
        ends.flags.writeable = False
        self.vertices, self.ends, self.edges, self._index = vertices, ends, edges, index

    @cached_property
    def edges(self) -> list[Edge]:
        """The columns as ``Edge`` tuples."""
        u, v = (map(self.vertices.__getitem__, c.tolist()) for c in self.ends.T)
        wu, wv = self.weights.T.tolist() if isinstance(self, WeightedGraph) else [repeat(1.0)] * 2
        return list(map(_new_edge, zip(u, v, wu, wv, self._labels)))

    @property
    def labels(self) -> list:
        """Each edge's label, None where it has none; a column graph's held list."""
        held = vars(self).get("_labels")
        return list(map(itemgetter(4), self.edges)) if held is None else held

    # a graph built from positions builds its vertex index on the first lookup
    @cached_property
    def _index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    def index(self, v: VertexId) -> int:
        return self._index[v]

    def __contains__(self, v: VertexId) -> bool:
        return v in self._index

    # built on the first adjacency query: graphs that are only built,
    # serialized or canonicalised never pay for it
    @cached_property
    def _slots(self) -> _Slots:
        return _slot_index(self.ends, self.n)

    def _span(self, v: VertexId) -> slice:
        ptr, i = self._slots.ptr, self._index[v]
        return slice(ptr[i], ptr[i + 1])

    def degree(self, v: VertexId) -> int:
        """Loops contribute 1."""
        return len(self._slots.edge[self._span(v)])

    def incident(self, v: VertexId) -> list[int]:
        """Indices of edges adjacent to v (a loop appears once)."""
        return self._slots.edge[self._span(v)].tolist()

    def neighbors(self, v: VertexId) -> list[VertexId]:
        return list(map(self.vertices.__getitem__, self._slots.far[self._span(v)].tolist()))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def is_connected(self) -> bool:
        return not self.vertices or bool(np.isfinite(_bfs_distances(self, self.vertices[0])).all())


def _from_ends(
    cls: type, vertices: list, ends: np.ndarray, labels: list, weights: Optional[np.ndarray] = None
) -> Multigraph:
    """A graph of ``cls`` from the columns its builder holds, with no ``Edge``:
    edge i joins the positions ``ends[i]`` in ``vertices``, carries ``labels[i]``
    and, on a ``WeightedGraph``, the weights (wu, wv) ``weights[i]``.  Trusted:
    the vertices are distinct, ``labels`` holds E strings or Nones, and ``ends``
    (of ``intp``) and ``weights`` are (E, 2) arrays, which the graph takes over,
    read-only."""
    g = object.__new__(cls)
    ends.flags.writeable = False
    g.vertices, g.ends, g._labels = vertices, ends, labels
    if weights is not None:
        weights.flags.writeable = False
        g.weights = weights
    return g


def _from_ids(vertices: list, u: list, v: list, labels: list) -> Multigraph:
    """The column graph on ``vertices`` whose edge i joins the ids u[i] and
    v[i] and carries ``labels[i]``; ValueError on a repeated vertex id and
    KeyError on an end that is none of them."""
    ends = _end_table(_vertex_index(vertices), u, v, len(u))
    return _from_ends(Multigraph, vertices, ends, labels)


def _rows(g: Multigraph) -> Optional[list[Edge]]:
    """The caller's edges of a row graph, or None for a column graph, whose
    records readers take from its columns."""
    return None if "_labels" in vars(g) else g.edges


def _require_vertex(g: Multigraph, v: VertexId) -> None:
    """Raise ValueError naming v unless it is a vertex of g, the start of a
    search or a walk."""
    if v not in g:
        raise ValueError(f"start vertex {v!r} is not in the graph")


def _bfs_distances(g: Multigraph, v: VertexId) -> np.ndarray:
    """Edge distance from v by vertex position, like ``g.vertices``; inf where unreached."""
    _require_vertex(g, v)
    dist = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for x in g.neighbors(u):
            if x not in dist:
                dist[x] = dist[u] + 1
                queue.append(x)
    return np.fromiter(map(dist.get, g.vertices, repeat(np.inf)), float, g.n)


def _stars(g: Multigraph) -> _Slots:
    """The slot table for readers outside this module: vertex i's star is
    ``edge[ptr[i]:ptr[i + 1]]``, in the order of :meth:`Multigraph.incident`,
    and ``np.diff(ptr)`` is every degree, an isolated vertex's 0 among them."""
    return g._slots


def _degrees(g: Multigraph) -> np.ndarray:
    """Degrees in vertex order; an isolated vertex has no Markov row."""
    deg = np.diff(g._slots.ptr)
    if not deg.all():
        raise IsolatedVertexError(f"vertex {g.vertices[int(deg.argmin())]!r} is isolated")
    return deg


def _neighbor_sum(g: Multigraph, x: np.ndarray) -> np.ndarray:
    """At each vertex, the sum of ``x`` (indexed like ``g.vertices``) over its
    neighbours, a loop counting once; divided by the degree, the Markov operator."""
    s = g._slots
    return np.bincount(s.vertex, weights=np.asarray(x)[s.far], minlength=g.n)


class WeightedGraph(Multigraph):
    """Multigraph carrying a weight per (vertex, incident edge) pair;
    ``weights`` is the read-only (E, 2) table of (wu, wv), edge by edge."""

    def __init__(self, vertices: Sequence[VertexId], edges: Sequence[Edge]):
        super().__init__(vertices, list(edges))
        self.weights = np.array([(e.wu, e.wv) for e in self.edges], dtype=complex).reshape(-1, 2)
        self.weights.flags.writeable = False

    @property
    def is_self_adjoint(self) -> bool:
        """True iff every edge weight pair is mutually conjugate."""
        w, loop = self.weights, self.ends[:, 0] == self.ends[:, 1]
        return not np.where(loop, np.abs(w[:, 0].imag) > 0, w[:, 0] != w[:, 1].conj()).any()


def markov_weights(g: Multigraph) -> WeightedGraph:
    """Weight every (vertex, edge) pair by 1/degree(vertex)."""
    weights = (1.0 / _degrees(g))[g.ends]
    return _from_ends(WeightedGraph, list(g.vertices), g.ends, g.labels, weights)


@dataclass
class LinearOperator:
    """Finite-dimensional operator; operators are dense only, held in ``matrix``."""

    matrix: np.ndarray

    def as_matrix(self) -> np.ndarray:
        return self.matrix

    @cached_property
    def norm_bound(self) -> float:
        """min(sqrt(|m|_1 |m|_inf), |m|_F), a bound on the norm of the matrix m,
        derived on first read; column sums are row sums of a C-order transpose,
        so on a symmetric m the first term is its largest row sum."""
        m = self.matrix
        rows = float(np.abs(m).sum(axis=1).max())
        cols = float(np.abs(m.T, order="C").sum(axis=1).max())
        return min(float(np.sqrt(rows * cols)), float(np.linalg.norm(m, "fro")))


def _operator_from_matrix(m: np.ndarray) -> LinearOperator:
    """The one builder of this module's dense operators; per-layer tracing
    counts the matrices it receives, by this name."""
    return LinearOperator(m)


def laplace_type_operator(g: WeightedGraph) -> LinearOperator:
    """Neighbor-sum operator: entry (v, w) sums the weights at v of v-w edges.

    Loops contribute their weight to the diagonal once per loop.
    """
    w, s = g.weights, g._slots
    dtype = complex if w.imag.any() else float
    # each slot takes the weight at its own end: wu at the u-end, wv at the v-end
    w = np.where(s.vertex == g.ends[s.edge, 0], w[s.edge, 0], w[s.edge, 1])
    m = np.zeros((g.n, g.n), dtype=dtype)
    np.add.at(m, (s.vertex, s.far), w if dtype is complex else w.real)
    return _operator_from_matrix(m)


def markov_operator(g: Multigraph) -> LinearOperator:
    """Averaging operator of the simple random walk (loops count once)."""
    return laplace_type_operator(markov_weights(g))


def _markov_eigh(g: Multigraph) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of D^-1/2 A D^-1/2, the symmetric form of the Markov
    operator D^-1 A: the same eigenvalues, and D^-1/2 u is an eigenvector of
    D^-1 A for each eigenvector u.  ``eigh`` reads one triangle of its input,
    so it cannot take D^-1 A itself, which is not symmetric on an irregular
    graph; on a regular graph the two matrices are equal bit for bit."""
    root = np.sqrt(_degrees(g))
    return np.linalg.eigh(root[:, None] * markov_operator(g).as_matrix().real / root)


def shift_square_transform(
    h: LinearOperator, lam: complex, radius: float
) -> tuple[LinearOperator, WeightedGraph]:
    """Positive transform I - (A - lam)(A - lam)^* / R^2 and its graph.

    The transform has 1 in its spectrum exactly when lam is in the spectrum
    of A.  The realizing weighted graph lives on the same vertex set; its
    edges are the nonzero entries (paths of length <= 2 in the original).
    """
    if radius < 2 * h.norm_bound:
        raise RadiusTooSmallError(
            f"radius {radius} below 2*norm estimate {2 * h.norm_bound}"
        )
    a = h.as_matrix()
    n = a.shape[0]
    shifted = a - lam * np.eye(n)
    t = np.eye(n) - (shifted @ shifted.conj().T) / radius**2
    ends = np.stack(np.nonzero(np.triu((t != 0) | (t != 0).T)), axis=1)
    weights = t[ends, ends[:, ::-1]]  # (t[u, v], t[v, u]) per edge
    graph = _from_ends(WeightedGraph, list(range(n)), ends, [None] * len(ends), weights)
    return _operator_from_matrix(t), graph
