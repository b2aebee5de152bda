"""Finite multigraphs, per-endpoint edge weights, and neighbor-sum operators.

Loops count once toward the degree throughout; the convention is recorded in
:data:`treespec.serialize.CONVENTIONS` and embedded in serialized artifacts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Optional, Sequence

import numpy as np

VertexId = Hashable


class IsolatedVertexError(ValueError):
    pass


class RadiusTooSmallError(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
    """Undirected edge; a loop has u == v and a single weight wu (= wv)."""

    u: VertexId
    v: VertexId
    wu: complex = 1.0
    wv: complex = 1.0
    label: Optional[str] = None

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


class Multigraph:
    """Unweighted multigraph with loops; edges may carry labels."""

    def __init__(self, vertices: Sequence[VertexId], edges: Sequence[tuple]):
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self.edges: list[Edge] = []
        for i, e in enumerate(edges):
            if not isinstance(e, Edge):
                u, v, *rest = e
                e = Edge(u, v, label=rest[0] if rest else None)
            if e.u not in self._index or e.v not in self._index:
                raise ValueError(f"edge {i}: {e} references unknown vertex")
            self.edges.append(e)

    def index(self, v: VertexId) -> int:
        return self._index[v]

    # built on the first adjacency query: graphs that are only built,
    # serialized or canonicalised never pay for it
    @cached_property
    def _incidence(self) -> dict[VertexId, list[int]]:
        """Edge ids at each vertex in edge order (a loop appears once)."""
        inc: dict[VertexId, list[int]] = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            inc[e.u].append(i)
            if not e.is_loop:
                inc[e.v].append(i)
        return inc

    def degree(self, v: VertexId) -> int:
        """Loops contribute 1."""
        return len(self._incidence[v])

    def incident(self, v: VertexId) -> list[int]:
        """Indices of edges adjacent to v (a loop appears once)."""
        return list(self._incidence[v])

    def neighbors(self, v: VertexId) -> list[VertexId]:
        edges = self.edges
        out = []
        for i in self._incidence[v]:
            e = edges[i]
            out.append(e.v if e.u == v else e.u)
        return out

    @property
    def n(self) -> int:
        return len(self.vertices)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        return len(_bfs_distances(self, self.vertices[0])) == self.n


def _bfs_distances(g: Multigraph, v: VertexId) -> dict:
    """Edge distance from v to every vertex reachable from it."""
    if v not in g._index:
        raise ValueError(f"start vertex {v!r} is not in the graph")
    dist = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for x in g.neighbors(u):
            if x not in dist:
                dist[x] = dist[u] + 1
                queue.append(x)
    return dist


def _degrees(g: Multigraph) -> list[int]:
    """Degrees in vertex order; an isolated vertex has no Markov row."""
    deg = [len(ids) for ids in g._incidence.values()]
    if 0 in deg:
        raise IsolatedVertexError(f"vertex {g.vertices[deg.index(0)]!r} is isolated")
    return deg


def _neighbor_sum(g: Multigraph, x: np.ndarray) -> np.ndarray:
    """At each vertex, the sum of ``x`` (indexed like ``g.vertices``) over its
    neighbours, a loop counting once; divided by the degree, the Markov operator."""
    index, xs = g._index, x.tolist()
    return np.array(
        [sum(xs[index[u]] for u in g.neighbors(v)) for v in g.vertices], dtype=float
    )


class WeightedGraph(Multigraph):
    """Multigraph carrying a weight per (vertex, incident edge) pair."""

    def __init__(self, vertices: Sequence[VertexId], edges: Sequence[Edge]):
        super().__init__(vertices, list(edges))

    @property
    def is_self_adjoint(self) -> bool:
        """True iff every edge weight pair is mutually conjugate."""
        for e in self.edges:
            if e.is_loop:
                if abs(complex(e.wu).imag) > 0:
                    return False
            elif complex(e.wu) != np.conj(complex(e.wv)):
                return False
        return True


def markov_weights(g: Multigraph) -> WeightedGraph:
    """Weight every (vertex, edge) pair by 1/degree(vertex)."""
    deg = dict(zip(g.vertices, _degrees(g)))
    edges = [
        Edge(e.u, e.v, 1.0 / deg[e.u], 1.0 / deg[e.v], e.label) for e in g.edges
    ]
    return WeightedGraph(g.vertices, edges)


@dataclass
class LinearOperator:
    """Finite-dimensional operator; operators are dense only, held in ``matrix``."""

    matrix: np.ndarray
    norm_bound: float = 0.0

    def as_matrix(self) -> np.ndarray:
        return self.matrix


def _operator_from_matrix(m: np.ndarray) -> LinearOperator:
    norm = min(
        float(np.abs(m).sum(axis=1).max()), float(np.linalg.norm(m, "fro"))
    )
    return LinearOperator(matrix=m, norm_bound=norm)


def laplace_type_operator(g: WeightedGraph) -> LinearOperator:
    """Neighbor-sum operator: entry (v, w) sums the weights at v of v-w edges.

    Loops contribute their weight to the diagonal once per loop.
    """
    n = g.n
    dtype = complex if any(
        complex(e.wu).imag or complex(e.wv).imag for e in g.edges
    ) else float
    m = np.zeros((n, n), dtype=dtype)
    for e in g.edges:
        iu, iv = g.index(e.u), g.index(e.v)
        if e.is_loop:
            m[iu, iu] += e.wu if dtype is complex else complex(e.wu).real
        else:
            m[iu, iv] += e.wu if dtype is complex else complex(e.wu).real
            m[iv, iu] += e.wv if dtype is complex else complex(e.wv).real
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
    edges = []
    for i in range(n):
        if t[i, i] != 0:
            edges.append(Edge(i, i, t[i, i], t[i, i]))
        for j in range(i + 1, n):
            if t[i, j] != 0 or t[j, i] != 0:
                edges.append(Edge(i, j, t[i, j], t[j, i]))
    return _operator_from_matrix(t), WeightedGraph(list(range(n)), edges)
