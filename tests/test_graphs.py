import math
import re
from collections import abc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from treespec import (
    Edge,
    IsolatedVertexError,
    LinearOperator,
    Multigraph,
    OmegaWord,
    RadiusTooSmallError,
    UpsilonSpec,
    WeightedGraph,
    cayley_ball,
    laplace_type_operator,
    level_projection_covering,
    lift_weights,
    markov_operator,
    markov_weights,
    parse_graph,
    schreier_graph,
    serialize_graph,
    shift_square_transform,
    upsilon_graph,
)
from treespec import graphs
from treespec.config import FormatError
from treespec.graphs import _bfs_distances, _from_ends, _neighbor_sum

from test_serialize import COLUMN_GRAPHS, documented_graphs


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


# The dict incidence, per-edge operator and comprehension neighbour sum that
# the slot index replaced; the index must agree with them in order and bit for
# bit.
def dict_incidence(g):
    inc = {v: [] for v in g.vertices}
    for i, e in enumerate(g.edges):
        inc[e.u].append(i)
        if not e.is_loop:
            inc[e.v].append(i)
    return inc


def incidence_neighbors(g, v):
    return [g.edges[i].v if g.edges[i].u == v else g.edges[i].u for i in dict_incidence(g)[v]]


def per_edge_operator(g):
    dtype = complex if any(complex(e.wu).imag or complex(e.wv).imag for e in g.edges) else float
    m = np.zeros((g.n, g.n), dtype=dtype)
    for e in g.edges:
        iu, iv = g.index(e.u), g.index(e.v)
        if e.is_loop:
            m[iu, iu] += e.wu if dtype is complex else complex(e.wu).real
        else:
            m[iu, iv] += e.wu if dtype is complex else complex(e.wu).real
            m[iv, iu] += e.wv if dtype is complex else complex(e.wv).real
    return m


def comprehension_neighbor_sum(g, x):
    # one addition at a time, in incidence order, as the comprehension's sum() did
    xs = x.tolist()
    out = []
    for v in g.vertices:
        total = 0
        for u in incidence_neighbors(g, v):
            total += xs[g.index(u)]
        out.append(total)
    return np.array(out, dtype=float)


def with_isolated(g):
    return Multigraph(g.vertices + ["isolated"], g.edges)


def random_weights(g, seed, complex_weights):
    rng = np.random.default_rng(seed)

    def draw():
        return complex(*rng.normal(size=2)) if complex_weights else float(rng.normal())

    edges = []
    for e in g.edges:
        wu = draw()
        edges.append(Edge(e.u, e.v, wu, wu if e.is_loop else draw(), e.label))
    return WeightedGraph(g.vertices, edges)


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
        assert Multigraph([], []).is_connected() is True

    @given(g=GRAPHS.map(with_isolated))
    def test_adjacency_matches_edge_scan(self, g):
        inc = dict_incidence(g)
        for v in g.vertices:
            assert g.incident(v) == scan_incident(g, v) == inc[v]
            assert g.neighbors(v) == scan_neighbors(g, v) == incidence_neighbors(g, v)
            assert g.degree(v) == len(scan_incident(g, v))

    @given(g=GRAPHS.map(with_isolated), seed=st.integers(0, 10_000))
    def test_neighbor_sum_is_bit_identical(self, g, seed):
        x = np.random.default_rng(seed).normal(size=g.n)
        assert np.array_equal(_neighbor_sum(g, x), comprehension_neighbor_sum(g, x))

    @given(g=GRAPHS.map(with_isolated), seed=st.integers(0, 10_000), cplx=st.booleans())
    def test_dense_operator_is_bit_identical(self, g, seed, cplx):
        wg = random_weights(g, seed, cplx)
        m, ref = laplace_type_operator(wg).as_matrix(), per_edge_operator(wg)
        assert m.dtype == ref.dtype and np.array_equal(m, ref)

    def test_endpoint_table(self):
        g = Multigraph(["a", "b", "c"], [("b", "c"), ("a", "a"), ("c", "a")])
        assert g.ends.tolist() == [[1, 2], [0, 0], [2, 0]]
        assert g.ends.dtype == np.intp and g.ends.shape == (3, 2)
        with pytest.raises(ValueError):
            g.ends[0, 0] = 0
        assert Multigraph([0], []).ends.shape == (0, 2)
        assert "a" in g and "d" not in g

    def test_unhashable_endpoint_is_a_type_error(self):
        with pytest.raises(TypeError):
            Multigraph([0, 1], [(0, 1), (1, [0])])

    @given(g=GRAPHS)
    def test_bfs_matches_edge_relaxation(self, g):
        # an extra isolated vertex keeps the search honest about reachability
        h = Multigraph(g.vertices + ["isolated"], g.edges)
        for v in h.vertices:
            dist = scan_distances(h, v)
            assert _bfs_distances(h, v).tolist() == [dist.get(u, math.inf) for u in h.vertices]


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

    @pytest.mark.parametrize("cls", [Multigraph, WeightedGraph])
    @pytest.mark.parametrize("edge", [(0, 1, 0.5, 2.0), (0,), (0, 1, "a", 0.5, 2.0, None)])
    def test_tuple_of_another_length_is_named(self, cls, edge):
        # a 4-tuple was read as (u, v, label): weights 1.0 and label 0.5
        with pytest.raises(ValueError, match=re.escape(f"edge 1: {edge!r} is neither")):
            cls([0, 1], [(1, 1), edge])

    def test_first_unknown_endpoint_is_named(self):
        edges = [(0, 1), (1, 7, "a"), Edge(9, 0)]
        with pytest.raises(ValueError) as info:
            Multigraph([0, 1], edges)
        assert str(info.value) == (
            "edge 1: Edge(u=1, v=7, wu=1.0, wv=1.0, label='a') references unknown vertex"
        )

    @pytest.mark.parametrize("weight", [None, "1.5", "abc", b"2.0"])
    @pytest.mark.parametrize("end", ["wu", "wv"])
    def test_weight_that_is_not_a_number_is_named(self, weight, end):
        # None was stored as nan, "1.5" as 1.5, and "abc" raised numpy's own message
        bad = Edge(0, 1, **{"wu": 1.0, "wv": 2.0, end: weight})
        named = re.escape(f"edge 1: weight {weight!r} is not a number")
        with pytest.raises(ValueError, match=named):
            WeightedGraph([0, 1], [Edge(0, 0, 0.5, 0.5), bad, Edge(1, 1, None, None)])

    @pytest.mark.parametrize(
        "wu, wv, table",
        [
            (3, 2.5, [[3.0, 2.5]]),
            (True, False, [[1.0, 0.0]]),
            (np.int64(4), np.float32(0.5), [[4.0, 0.5]]),
            (np.bool_(True), np.uint8(7), [[1.0, 7.0]]),
            (1 + 2j, 2, [[1 + 2j, 2 + 0j]]),
            (np.complex128(-1j), np.float64(0.25), [[-1j, 0.25 + 0j]]),
        ],
    )
    def test_number_weights_keep_their_tables(self, wu, wv, table):
        weights = WeightedGraph([0, 1], [Edge(0, 1, wu, wv)]).weights
        want = np.array(table)
        assert weights.dtype == want.dtype and weights.tobytes() == want.tobytes()


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

    @given(g=GRAPHS)
    def test_norm_bound_bounds_the_spectral_norm(self, g):
        # the Markov operator of an irregular graph is not symmetric; the
        # tolerance covers the rounding of the SVD where the bound is attained
        op = markov_operator(g)
        assert np.linalg.norm(op.as_matrix(), 2) <= op.norm_bound * (1 + 1e-12)

    @given(g=REGULAR)
    def test_norm_bound_of_a_symmetric_matrix_is_the_largest_row_sum(self, g):
        m = markov_operator(g).as_matrix()
        assert markov_operator(g).norm_bound == min(
            float(np.abs(m).sum(axis=1).max()), float(np.linalg.norm(m, "fro"))
        )

    def test_star_transform_at_twice_the_bound_is_positive(self):
        # on K_{1,3} the largest row sum is 1 while the norm is sqrt(3)
        op = markov_operator(Multigraph([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)]))
        assert op.norm_bound == pytest.approx(np.sqrt(3))
        t, _ = shift_square_transform(op, -1.0, 2 * op.norm_bound)
        assert np.linalg.eigvalsh(t.as_matrix()).min() >= -1e-12

    def test_norm_bound_is_derived_from_the_matrix(self):
        # a bound left at 0.0 let radius 0.1 through: the transform's least
        # eigenvalue was 1 - 25 / 0.01 = -2499
        with pytest.raises(RadiusTooSmallError):
            shift_square_transform(LinearOperator(np.diag([0.0, 5.0])), 0.0, 0.1)


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


def same_graph(g, h):
    """g and h agree in vertices, edges, end table and every lookup."""
    assert type(g) is type(h)
    assert g.vertices == h.vertices and g.edges == h.edges
    assert g.ends.dtype == h.ends.dtype == np.intp
    assert np.array_equal(g.ends, h.ends) and not g.ends.flags.writeable
    assert g.ends.flags.c_contiguous
    assert [g.index(v) for v in h.vertices] == list(range(h.n))
    assert all(g.neighbors(v) == h.neighbors(v) for v in h.vertices)


class TestGraphsFromPositions:
    """Builders that hold the end positions pass them to ``_from_ends``; the
    graphs equal those the public constructor makes from the same edges."""

    W = OmegaWord.parse(":012")

    def rebuilt(self, g):
        return type(g)(g.vertices, g.edges)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_level_graphs(self, n):
        g = schreier_graph(self.W, n)
        same_graph(g, self.rebuilt(g))

    @pytest.mark.parametrize("spec", [UpsilonSpec("finite", 5), UpsilonSpec("ray", 6),
                                      UpsilonSpec("line", 4), UpsilonSpec("finite", 4, True)])
    def test_models(self, spec):
        g = upsilon_graph(spec)
        same_graph(g, self.rebuilt(g))

    def test_cayley_ball(self):
        ball = cayley_ball(self.W, 4, 3)
        same_graph(ball.graph, self.rebuilt(ball.graph))
        same_graph(ball.covering.target, self.rebuilt(ball.covering.target))

    def test_projection_covering(self):
        c = level_projection_covering(self.W, 6, 3)
        same_graph(c.source, self.rebuilt(c.source))
        same_graph(c.target, self.rebuilt(c.target))

    @pytest.mark.parametrize("n", [1, 4])
    def test_markov_weights(self, n):
        g = markov_weights(schreier_graph(self.W, n))
        same_graph(g, self.rebuilt(g))

    def test_markov_weights_reuse_the_ends(self):
        g = random_multigraph(np.random.default_rng(3), 6, 5)
        w = markov_weights(g)
        assert w.ends is g.ends and w.vertices == g.vertices and w.vertices is not g.vertices
        same_graph(w, self.rebuilt(w))

    def test_lift_weights(self):
        c = level_projection_covering(self.W, 5, 2)
        lifted = lift_weights(c, markov_weights(c.target))
        assert lifted.ends is c.source.ends
        same_graph(lifted, self.rebuilt(lifted))

    @pytest.mark.parametrize("lam", [0.25, 0.25 + 0.1j])
    def test_shift_square_transform(self, lam):
        op = markov_operator(schreier_graph(self.W, 3))
        t, graph = shift_square_transform(op, lam, 2 * op.norm_bound + 1.0)
        same_graph(graph, self.rebuilt(graph))
        # the graph the per-entry route built from the transform's nonzero entries
        m = t.as_matrix()
        pairs = np.argwhere(np.triu((m != 0) | (m != 0).T)).tolist()
        reference = WeightedGraph(range(len(m)), [Edge(i, j, m[i, j], m[j, i]) for i, j in pairs])
        assert graph.edges == reference.edges and graph.weights.dtype == m.dtype
        assert graph.weights.astype(complex).tobytes() == reference.weights.astype(complex).tobytes()

    def test_labels_held_once(self):
        # the graph keeps its label list when the view is built, for the writers to read
        g = schreier_graph(self.W, 3)
        labels = g.labels
        assert "edges" not in vars(g) and set(labels) == {"a", "b", "c", "d"}
        assert [e.label for e in g.edges] == labels and g.labels is labels
        assert markov_weights(g).labels == labels

    def test_lookups_of_a_built_graph(self):
        g = _from_ends(Multigraph, ["x", "y"], np.array([[0, 1]], np.intp), [None])
        assert g.index("y") == 1 and "x" in g and "z" not in g
        assert g.degree("x") == 1 and not g.ends.flags.writeable


class TestEndsByColumn:
    def test_tuple_and_edge_inputs(self):
        g = Multigraph(["a", "b", "c"], [("a", "b"), Edge("c", "c"), ("b", "c", "x")])
        assert g.ends.tolist() == [[0, 1], [2, 2], [1, 2]]
        assert g.ends.dtype == np.intp and g.ends.flags.c_contiguous

    def test_no_edges(self):
        g = Multigraph([0, 1], [])
        assert g.ends.shape == (0, 2) and g.degree(0) == 0

    @pytest.mark.parametrize("edges", [[(0, 1), (9, 0)], [(0, 1), (0, 9)]])
    def test_unknown_end_in_either_column(self, edges):
        with pytest.raises(ValueError, match=r"edge 1: .* references unknown vertex"):
            Multigraph([0, 1], edges)


def reference_rows(g):
    """A graph's rows, made one at a time from its columns."""
    weights = g.weights.tolist() if isinstance(g, WeightedGraph) else [[1.0, 1.0]] * len(g.ends)
    return [
        Edge(g.vertices[a], g.vertices[b], wu, wv, label)
        for (a, b), (wu, wv), label in zip(g.ends.tolist(), weights, g.labels)
    ]


def column_copy(g, cls=None, order=None):
    """A graph of ``cls`` (g's type by default) with g's rows, its
    vertices listed in ``order``, positions in ``g.vertices``; a weighted copy
    of an unweighted graph has every weight 1.0."""
    cls = cls or type(g)
    order = np.arange(g.n) if order is None else np.asarray(order)
    position = np.argsort(order)  # each vertex's position in the copy
    weights = None
    if issubclass(cls, WeightedGraph):
        weighted = isinstance(g, WeightedGraph)
        weights = g.weights.copy() if weighted else np.ones((len(g.ends), 2))
    vertices = [g.vertices[k] for k in order]
    return _from_ends(cls, vertices, position[g.ends], list(g.labels), weights)


def agree_as_rows(a, b):
    """a == b, b == a and both != give the answers of the row lists."""
    ra, rb = list(a), list(b)
    assert (a == b) == (b == a) == (ra == rb)
    assert (a != b) == (b != a) == (ra != rb)


def round_trip(g):
    return parse_graph(serialize_graph(g))


# every builder of graphs, the parser on str-id, int-id and weighted documents among them
COLUMN_BUILDERS = {
    **COLUMN_GRAPHS,
    "parsed-str-ids": lambda: round_trip(schreier_graph(OmegaWord.parse(":01"), 3)),
    "parsed-int-ids": lambda: round_trip(upsilon_graph(UpsilonSpec("line", 3))),
    "parsed-weighted": lambda: round_trip(markov_weights(schreier_graph(OmegaWord.parse(":01"), 3))),
}
SLICES = [slice(None), slice(1, -1), slice(None, None, -2), slice(-5, None, 3), slice(3, 1),
          slice(2, None), slice(None, 2**70), slice(-(2**70), 4, 2)]


@pytest.mark.parametrize("build", COLUMN_BUILDERS.values(), ids=COLUMN_BUILDERS.keys())
class TestEdgeView:
    """A graph's ``edges`` reads like the list of its rows."""

    def test_length_rows_and_repr(self, build):
        g = build()
        rows, view = reference_rows(g), g.edges
        assert isinstance(view, abc.Sequence) and view is not g.edges
        assert len(view) == len(rows) > 0
        assert all(type(e) is Edge for e in view)
        assert repr(list(view)) == repr(rows) and repr(view) == repr(rows)
        with pytest.raises(TypeError):
            hash(view)

    def test_indexes(self, build):
        g = build()
        rows, view, count = reference_rows(g), g.edges, len(g.ends)
        for i in range(-count, count):
            for k in (i, np.int64(i), np.intp(i), np.int32(i)):
                assert type(view[k]) is Edge and repr(view[k]) == repr(rows[i])
        assert view[True] == rows[1] and view[False] == rows[0]
        for k in (count, -count - 1, np.int64(count), 2**70):
            with pytest.raises(IndexError):
                view[k]
        for k in (1.0, "0", None):
            with pytest.raises(TypeError):
                view[k]

    def test_slices(self, build):
        g = build()
        rows, view = reference_rows(g), g.edges
        for s in SLICES:
            assert type(view[s]) is list and repr(view[s]) == repr(rows[s])
        assert list(reversed(view)) == rows[::-1]
        assert view.index(rows[-1]) == rows.index(rows[-1]) and rows[-1] in view
        assert view.count(rows[0]) == rows.count(rows[0])

    def test_equality_with_lists_and_views(self, build):
        g = build()
        rows, view, twin = reference_rows(g), g.edges, build().edges
        for a, b in [(view, rows), (rows, view), (view, twin), (twin, view), (view, view)]:
            assert a == b and not a != b
        changed = rows[:-1] + [rows[-1]._replace(label="x")]
        relabelled = column_copy(g)
        relabelled.labels[-1] = "x"
        for other in (changed, rows[:-1], tuple(rows), None, relabelled.edges, twin[1:]):
            assert view != other and other != view and not view == other and not other == view
        agree_as_rows(view, relabelled.edges)

    def test_equal_columns_compare_with_no_rows(self, build, monkeypatch):
        g, h = build(), build()
        monkeypatch.setattr(graphs, "_column_rows", None)  # a row made now raises TypeError
        assert g.edges == h.edges and h.edges == g.edges and not g.edges != h.edges

    def test_permuted_vertices_compare_by_rows(self, build):
        g = build()
        permuted = column_copy(g, order=np.arange(g.n)[::-1])
        assert permuted.vertices != g.vertices
        assert permuted.edges == g.edges and g.edges == permuted.edges
        assert not permuted.edges != g.edges
        agree_as_rows(permuted.edges, g.edges)

    def test_weighted_against_unweighted_compare_by_rows(self, build):
        g = build()
        bare, weighted = column_copy(g, Multigraph), column_copy(g, WeightedGraph)
        for a, b in [(bare, g), (weighted, g), (bare, weighted)]:
            agree_as_rows(a.edges, b.edges)
        if not isinstance(g, WeightedGraph):  # every weight 1.0: equal rows
            assert bare.edges == weighted.edges and weighted.edges == g.edges


@given(g=documented_graphs())
@settings(max_examples=200, deadline=None)
def test_views_of_round_tripped_documents_read_as_their_rows(g):
    try:
        h = round_trip(g)
    except FormatError:  # an int or bool label has no place in a document
        assume(False)
    view = column_copy(h).edges
    rows = reference_rows(column_copy(h))
    assert repr(view) == repr(rows) and len(view) == len(rows)
    for i in range(-len(rows), len(rows)):
        assert repr(view[i]) == repr(rows[i])
    for s in SLICES:
        assert repr(view[s]) == repr(rows[s])
    agree_as_rows(view, h.edges)
    agree_as_rows(view, g.edges)
    agree_as_rows(view, column_copy(g).edges)
    agree_as_rows(column_copy(h, Multigraph).edges, column_copy(g, WeightedGraph).edges)
    assert repr(h.edges) == repr(rows) and h.edges == view
