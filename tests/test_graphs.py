import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treespec import (
    Edge,
    IsolatedVertexError,
    Multigraph,
    RadiusTooSmallError,
    WeightedGraph,
    laplace_type_operator,
    markov_operator,
    markov_weights,
    shift_square_transform,
)
from treespec.graphs import _bfs_distances


def random_multigraph(rng, n, extra_edges):
    # connected: a spine plus random chords/loops
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(extra_edges):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        edges.append((u, v))
    return Multigraph(list(range(n)), edges)


def regularize(g):
    # pad every vertex with loops up to the maximum degree; the Markov
    # operator of a regular graph is symmetric
    top = max(g.degree(v) for v in g.vertices)
    extra = [(v, v) for v in g.vertices for _ in range(top - g.degree(v))]
    return Multigraph(g.vertices, [(e.u, e.v) for e in g.edges] + extra)


GRAPHS = st.builds(
    random_multigraph,
    st.integers(0, 10_000).map(np.random.default_rng),
    st.integers(2, 7),
    st.integers(0, 8),
)
REGULAR = GRAPHS.map(regularize)


# Reference adjacency by scanning every edge; the incidence index must agree.
def scan_incident(g, v):
    return [i for i, e in enumerate(g.edges) if v in (e.u, e.v)]


def scan_neighbors(g, v):
    out = []
    for e in g.edges:
        if e.u == v:
            out.append(e.v)
        elif e.v == v:
            out.append(e.u)
    return out


def scan_distances(g, v):
    # Bellman-Ford relaxation over the edge list
    dist = {v: 0}
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            for a, b in ((e.u, e.v), (e.v, e.u)):
                if a in dist and dist[a] + 1 < dist.get(b, math.inf):
                    dist[b] = dist[a] + 1
                    changed = True
    return dist


class TestMultigraph:
    def test_degree_counts_loops_once(self):
        g = Multigraph([0, 1], [(0, 0), (0, 1), (1, 1), (1, 1)])
        assert g.degree(0) == 2
        assert g.degree(1) == 3

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError):
            Multigraph([0, 0], [])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="edge 1"):
            Multigraph([0, 1], [(0, 1), (1, 2)])

    def test_adjacency_of_a_vertex_not_in_the_graph_raises(self):
        g = Multigraph([0, 1], [(0, 1)])
        for query in (g.degree, g.incident, g.neighbors):
            with pytest.raises(KeyError):
                query(2)

    def test_connectivity(self):
        assert Multigraph([0, 1], [(0, 1)]).is_connected()
        assert not Multigraph([0, 1, 2], [(0, 1)]).is_connected()

    @given(g=GRAPHS)
    def test_adjacency_matches_edge_scan(self, g):
        for v in g.vertices:
            assert g.incident(v) == scan_incident(g, v)
            assert g.neighbors(v) == scan_neighbors(g, v)
            assert g.degree(v) == len(scan_incident(g, v))

    @given(g=GRAPHS)
    def test_bfs_matches_edge_relaxation(self, g):
        # an extra isolated vertex keeps the search honest about reachability
        h = Multigraph(g.vertices + ["isolated"], g.edges)
        for v in h.vertices:
            assert _bfs_distances(h, v) == scan_distances(h, v)


FIELDS = st.tuples(
    st.one_of(st.integers(), st.text(max_size=3)),
    st.one_of(st.integers(), st.text(max_size=3)),
    st.one_of(st.floats(allow_nan=False), st.complex_numbers(allow_nan=False)),
    st.one_of(st.floats(allow_nan=False), st.complex_numbers(allow_nan=False)),
    st.one_of(st.none(), st.sampled_from("abcd")),
)


class TestEdge:
    @given(FIELDS)
    def test_equal_and_hashed_by_value(self, fields):
        e = Edge(*fields)
        assert e == Edge(*fields) and hash(e) == hash(Edge(*fields))
        assert hash(e) == hash(tuple(fields))
        assert (e.u, e.v, e.wu, e.wv, e.label) == fields

    def test_defaults_and_loops(self):
        assert Edge(0, 1) == Edge(0, 1, 1.0, 1.0, None)
        assert Edge(2, 2).is_loop and not Edge(0, 1).is_loop

    def test_read_only(self):
        e = Edge(0, 1)
        for field in ("u", "v", "wu", "wv", "label"):
            with pytest.raises(AttributeError):
                setattr(e, field, 5)
        assert e == Edge(0, 1)

    def test_repr(self):
        assert repr(Edge("0", "1", label="a")) == (
            "Edge(u='0', v='1', wu=1.0, wv=1.0, label='a')"
        )
        assert repr(Edge(0, 0, 0.25, 0.25)) == (
            "Edge(u=0, v=0, wu=0.25, wv=0.25, label=None)"
        )

    def test_tuple_inputs_become_edges(self):
        g = Multigraph([0, 1], [(0, 1), (1, 1, "b"), Edge(0, 0, label="c")])
        assert g.edges == [Edge(0, 1), Edge(1, 1, label="b"), Edge(0, 0, label="c")]
        assert all(type(e) is Edge for e in g.edges)

    def test_first_unknown_endpoint_is_named(self):
        edges = [(0, 1), (1, 7, "a"), Edge(9, 0)]
        with pytest.raises(ValueError) as info:
            Multigraph([0, 1], edges)
        assert str(info.value) == (
            "edge 1: Edge(u=1, v=7, wu=1.0, wv=1.0, label='a') references unknown vertex"
        )


class TestMarkovWeights:
    def test_isolated_vertex(self):
        with pytest.raises(IsolatedVertexError):
            markov_weights(Multigraph([0, 1], [(0, 0)]))

    @given(g=GRAPHS)
    def test_rows_sum_to_one(self, g):
        m = markov_operator(g).as_matrix()
        assert np.allclose(m.sum(axis=1), 1.0)

    @given(g=REGULAR)
    def test_regular_markov_is_symmetric(self, g):
        m = markov_operator(g).as_matrix()
        assert np.allclose(m, m.T)

    @given(g=GRAPHS)
    def test_spectrum_in_unit_interval(self, g):
        # row-stochastic and similar to a symmetric matrix: real spectrum
        vals = np.linalg.eigvals(markov_operator(g).as_matrix())
        assert np.abs(vals.imag).max() < 1e-9
        assert vals.real.max() <= 1 + 1e-9
        assert vals.real.min() >= -1 - 1e-9
        assert abs(vals.real.max() - 1) < 1e-9  # constant vector


class TestLaplaceType:
    def test_weighted_entries(self):
        g = WeightedGraph([0, 1], [Edge(0, 1, 2.0, 3.0), Edge(1, 1, 5.0, 5.0)])
        m = laplace_type_operator(g).as_matrix()
        assert m[0, 1] == 2.0 and m[1, 0] == 3.0 and m[1, 1] == 5.0

    @given(g=GRAPHS)
    def test_norm_bound_dominates(self, g):
        op = markov_operator(g)
        vals = np.linalg.eigvals(op.as_matrix())
        assert np.abs(vals).max() <= op.norm_bound + 1e-9


class TestShiftSquareTransform:
    @given(g=REGULAR, lam=st.floats(-1.2, 1.2), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_membership_equivalence(self, g, lam, seed):
        # 1 is an eigenvalue of the transform iff lam is an eigenvalue of M
        op = markov_operator(g)
        vals = np.linalg.eigvalsh(op.as_matrix())
        dist = np.abs(vals - lam).min()
        if 1e-4 < dist < 1e-2:
            return  # stay clear of the decision margin
        t, graph = shift_square_transform(op, lam, 2 * op.norm_bound + 1.0)
        tvals = np.linalg.eigvalsh(t.as_matrix())
        hit = np.abs(tvals - 1).min() < 1e-8
        assert hit == (dist <= 1e-4)

    @given(g=REGULAR)
    def test_transform_graph_realizes_operator(self, g):
        op = markov_operator(g)
        t, graph = shift_square_transform(op, 0.25, 4.0)
        assert np.allclose(
            laplace_type_operator(graph).as_matrix(), t.as_matrix()
        )
        assert graph.is_self_adjoint

    @given(g=REGULAR)
    def test_transform_is_contained_in_unit_interval(self, g):
        op = markov_operator(g)
        t, _ = shift_square_transform(op, 0.5, 3.0)
        tvals = np.linalg.eigvalsh(t.as_matrix())
        assert tvals.min() >= -1e-12 and tvals.max() <= 1 + 1e-12

    def test_small_radius_rejected(self):
        op = markov_operator(Multigraph([0, 1], [(0, 1), (0, 0), (1, 1)]))
        with pytest.raises(RadiusTooSmallError):
            shift_square_transform(op, 0.0, 0.5)
