"""Finite multigraphs, per-endpoint edge weights, and neighbor-sum operators.

Loops count once toward the degree throughout; the convention is recorded in
:data:`treespec.serialize.CONVENTIONS` and embedded in serialized artifacts.

A graph comes in one of two kinds.  A *row graph* is made by the
``Multigraph`` or ``WeightedGraph`` constructor and keeps the caller's edges,
whose ends may print unlike their vertex (``True`` at vertex ``1``).  A
*column graph* is made by :func:`_from_ends`, from the columns its builder
holds (the level and model graphs, Cayley balls, weighted copies and the
parser's column route): each end is its own vertex, and the graph keeps no
``Edge`` rows; its ``edges`` is an :class:`_EdgeView`, made fresh on each
read, that makes a row only when the row is read.  :func:`_rows` tells the
two apart.
"""

from __future__ import annotations

from collections import abc, deque
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat
from operator import index, itemgetter
from typing import Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

VertexId = Hashable


class IsolatedVertexError(ValueError):
    pass


class RadiusTooSmallError(ValueError):
    pass


class Edge(NamedTuple):
    """Undirected edge; a loop has u == v and a single weight wu (= wv).

    A named tuple: read-only and equal and hashed by value.  A row graph
    keeps the caller's; a column graph makes one only when a caller reads
    that row of its ``edges``.
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
# ``map(_new_edge, zip(us, vs, wus, wvs, labels))`` makes a column graph's rows
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
    edges on a row graph, kept by this constructor, and on a column graph a
    fresh :class:`_EdgeView` of its columns, which the graph does not keep."""

    # the caller's edges of a row graph; a column graph has none
    _edges: Optional[list[Edge]] = None

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
        self.vertices, self.ends, self._edges, self._index = vertices, ends, edges, index

    @property
    def edges(self) -> Sequence[Edge]:
        """The caller's edges on a row graph, the same list on every read; on a
        column graph a new view of its columns, which keeps no rows."""
        return _EdgeView(self) if self._edges is None else self._edges

    @property
    def labels(self) -> list:
        """Each edge's label, None where it has none; a column graph's held list."""
        return self._labels if self._edges is None else list(map(itemgetter(4), self._edges))

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


def _column_rows(
    vertices: list, ends: np.ndarray, labels: list, weights: Optional[np.ndarray]
) -> Iterator[Edge]:
    """The ``Edge`` rows of columns, made as the iterator is read, with no
    Python frame per row."""
    u, v = (map(vertices.__getitem__, c.tolist()) for c in ends.T)
    wu, wv = [repeat(1.0)] * 2 if weights is None else weights.T.tolist()
    return map(_new_edge, zip(u, v, wu, wv, labels))


class _EdgeView(abc.Sequence):
    """A column graph's edges as ``Edge`` rows, each made when it is read and
    kept by neither the view nor the graph.  It reads, compares and prints
    like the list of those rows; a slice is that list's slice."""

    __slots__ = ("_g",)
    __hash__ = None  # equal by rows, like a list

    def __init__(self, g: Multigraph):
        self._g = g

    def __len__(self) -> int:
        return len(self._g._labels)

    def _weights(self) -> Optional[np.ndarray]:
        g = self._g
        return g.weights if isinstance(g, WeightedGraph) else None

    def __iter__(self) -> Iterator[Edge]:
        g = self._g
        return _column_rows(g.vertices, g.ends, g._labels, self._weights())

    def __getitem__(self, i):
        g = self._g
        if type(i) is slice:  # slice has no subclasses
            w = self._weights()
            w = w if w is None else w[i]
            return list(_column_rows(g.vertices, g.ends[i], g._labels[i], w))
        label, ends, wu, wv = g._labels[i], g.ends, 1.0, 1.0  # a list's IndexError or TypeError
        i = index(i)  # ``item`` takes no bool
        u, v = ends.item(i, 0), ends.item(i, 1)
        if isinstance(g, WeightedGraph):
            wu, wv = g.weights.item(i, 0), g.weights.item(i, 1)
        # not the Edge constructor or _new_edge, which take longer per row
        return tuple.__new__(Edge, (g.vertices[u], g.vertices[v], wu, wv, label))

    def _same_columns(self, other) -> bool:
        """Whether ``other`` is a view of equal columns, whose rows are then
        equal; False decides nothing, and the rows are compared."""
        if not isinstance(other, _EdgeView):
            return False
        g, h = self._g, other._g
        weighted = isinstance(g, WeightedGraph)
        return (
            weighted == isinstance(h, WeightedGraph)
            and g.vertices == h.vertices
            and np.array_equal(g.ends, h.ends)
            and g._labels == h._labels
            and (not weighted or np.array_equal(g.weights, h.weights))
        )

    def __eq__(self, other):
        return self._same_columns(other) or list(self) == _as_rows(other)

    def __ne__(self, other):
        return not self._same_columns(other) and list(self) != _as_rows(other)

    def __repr__(self) -> str:
        return repr(list(self))


def _as_rows(x):
    """x, or the list of its rows if it is an ``_EdgeView``."""
    return list(x) if isinstance(x, _EdgeView) else x


def _from_ids(vertices: list, u: list, v: list, labels: list) -> Multigraph:
    """The column graph on ``vertices`` whose edge i joins the ids u[i] and
    v[i] and carries ``labels[i]``; ValueError on a repeated vertex id and
    KeyError on an end that is none of them."""
    ends = _end_table(_vertex_index(vertices), u, v, len(u))
    return _from_ends(Multigraph, vertices, ends, labels)


def _rows(g: Multigraph) -> Optional[list[Edge]]:
    """The caller's edges of a row graph, or None for a column graph, whose
    records readers take from its columns and not from its ``edges`` view."""
    return g._edges


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
