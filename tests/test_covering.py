import os
import re
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from treespec import (
    BadStartError,
    CoveringMap,
    CoveringReport,
    Edge,
    IsolatedVertexError,
    Multigraph,
    NotAnEigenpairError,
    OmegaWord,
    ResourceLimitError,
    RunConfig,
    UpsilonSpec,
    WeightedGraph,
    WindowTooSmallError,
    cayley_ball,
    fiber_count,
    hulanicki_residual,
    laplace_type_operator,
    level_projection_covering,
    lift_path,
    lift_weights,
    markov_operator,
    markov_weights,
    schreier_graph,
    serialize_graph,
    spectral_inclusion_report,
    upsilon_graph,
    verify_covering,
    window_pullback_residual,
)
from treespec.actions import GENERATORS
from treespec.graphs import _bfs_distances

from test_growth import WREATH_OMEGAS

W = OmegaWord.parse(":012")
SRC = Path(__file__).resolve().parents[1] / "src"
WITNESS_RUN = """
import treespec as ts
c = ts.level_projection_covering(ts.OmegaWord.parse(":012"), 4, 2)
assert c.edge_map[8] != c.edge_map[18]
edge_map = {**c.edge_map, 18: c.edge_map[8]}
print(ts.verify_covering(ts.CoveringMap(c.source, c.target, c.vertex_map, edge_map)).witness)
"""
OMEGAS = st.sampled_from([":012", ":01", "0:12", "2:21"]).map(OmegaWord.parse)


def eigenpairs(g):
    m = markov_operator(g).as_matrix()
    vals, vecs = np.linalg.eigh(m)
    return vals, vecs


def binary_tree(depth):
    """The rooted binary tree to the given depth; vertices are bit strings."""
    vertices = [format(i, "b")[1:] for i in range(1, 2 << depth)]
    return Multigraph(vertices, [(v[:-1], v, "child") for v in vertices if v])


def identity_covering(g, interior=None):
    """g onto itself; with ``interior`` set, a window onto an infinite graph."""
    return CoveringMap(
        g, g, {v: v for v in g.vertices}, {i: i for i in range(len(g.edges))}, interior
    )


def per_edge_lift(c, w):
    """Reference route of ``lift_weights``: each source edge, one at a time,
    takes the weights of its image edge, each end the one at its image."""
    edges = []
    for ei, e in enumerate(c.source.edges):
        te = w.edges[c.edge_map[ei]]
        pu, pv = c.phi(e.u), c.phi(e.v)
        if te.is_loop:
            wu = wv = te.wu
        else:
            wu = te.wu if pu == te.u else te.wv
            wv = te.wu if pv == te.u else te.wv
        edges.append(Edge(e.u, e.v, wu, wv, e.label))
    return edges


def dense_residual(c, lam, f, radius=None):
    """Reference route: the pullback of f, cut to the radius ball around the
    first source vertex, against the dense operator of the weighted lift."""
    h = laplace_type_operator(lift_weights(c, markov_weights(c.target))).as_matrix().real
    f = f / np.linalg.norm(f)
    dist = _bfs_distances(c.source, c.source.vertices[0])
    fk = np.array([
        f[c.target.index(c.phi(v))] if radius is None or dist[x] <= radius else 0.0
        for x, v in enumerate(c.source.vertices)
    ])
    return float(np.linalg.norm(h @ fk - lam * fk)) / float(np.linalg.norm(fk))


def reference_verify(c):
    """Reference route: the per-entry scan over the public maps and adjacency
    methods that ``verify_covering`` ran before its position tables."""
    src, tgt = c.source, c.target
    for v in src.vertices:
        if v not in c.vertex_map:
            return CoveringReport(False, f"vertex {v!r} unmapped")
        try:
            inside = c.phi(v) in tgt
        except TypeError:
            inside = False
        if not inside:
            return CoveringReport(
                False, f"vertex {v!r} maps to {c.phi(v)!r}, not a target vertex"
            )
    edge_id = (int, np.integer)
    for ei, ti in c.edge_map.items():
        if not (isinstance(ei, edge_id) and isinstance(ti, edge_id)):
            return CoveringReport(False, f"edge map {ei!r} -> {ti!r} is not a pair of edge ids")
        if not (0 <= ei < len(src.edges) and 0 <= ti < len(tgt.edges)):
            return CoveringReport(False, f"edge map {ei} -> {ti} out of range")
        e, t = src.edges[ei], tgt.edges[ti]
        if Counter((c.phi(e.u), c.phi(e.v))) != Counter((t.u, t.v)):
            return CoveringReport(False, f"edge {ei} endpoints do not cover edge {ti}")
    hit_v, hit_e = set(), set()
    for v in src.vertices:
        if c.interior is not None and v not in c.interior:
            continue
        star, images = src.incident(v), set()
        for ei in star:
            if ei not in c.edge_map:
                return CoveringReport(False, f"edge {ei} at vertex {v!r} unmapped")
            images.add(c.edge_map[ei])
        tv = c.phi(v)
        if not len(images) == len(star) == tgt.degree(tv):
            return CoveringReport(False, f"star at {v!r} is not bijective onto star at {tv!r}")
        hit_v.add(tv)
        hit_e |= images
    missing_v = [v for v in tgt.vertices if v not in hit_v]
    missing_e = [i for i in range(len(tgt.edges)) if i not in hit_e]
    if missing_v or missing_e:
        if c.interior is not None:
            raise WindowTooSmallError(
                f"window image misses target vertices {missing_v[:3]} "
                f"or edges {missing_e[:3]}"
            )
        return CoveringReport(False, f"not surjective: missing vertices {missing_v[:3]}")
    return CoveringReport(True)


@lru_cache(maxsize=None)
def base_covering(kind, *args):
    """Coverings the corruptions start from; their maps are copied per use."""
    if kind == "level":
        return level_projection_covering(OmegaWord.parse(args[0]), *args[1:])
    if kind == "ball":
        return cayley_ball(OmegaWord.parse(args[0]), *args[1:]).covering
    if kind == "ray":
        return ray_window(*args)
    if kind == "cut":
        # the last source edge removed: the stars at its ends fall short
        c = base_covering("level", *args)
        src, last = c.source, len(c.source.edges) - 1
        edge_map = {ei: ti for ei, ti in c.edge_map.items() if ei != last}
        cut = Multigraph(src.vertices, src.edges[:last])
        return CoveringMap(cut, c.target, c.vertex_map, edge_map)
    if kind == "loops":
        # 1 and "1" print alike; the rim loop at c must not cover the loop at "1"
        tgt = Multigraph([1, "1"], [(1, 1), ("1", "1")])
        src = Multigraph(["a", "b", "c"], [("a", "a"), ("b", "b"), ("c", "c")])
        return CoveringMap(
            src, tgt, {"a": 1, "b": "1", "c": 1}, {0: 0, 1: 1, 2: 1}, interior={"a", "b"}
        )
    # a target with an isolated vertex, covered by an isolated source vertex
    tgt = Multigraph(["x", "y"], [("x", "x")])
    src = Multigraph(["a", "b"], [("a", "a")])
    return CoveringMap(src, tgt, {"a": "x", "b": "y"}, {0: 0})


BASES = st.sampled_from([
    ("level", ":012", 4, 2), ("level", ":01", 5, 2), ("level", "0:12", 3, 1),
    ("level", ":012", 6, 3), ("ball", ":012", 3, 2), ("ball", ":012", 5, 1),
    ("ball", "2:21", 4, 2), ("ray", 4), ("cut", ":012", 4, 2), ("loops",), ("isolated",),
])
# malformed and unusual edge ids as well as well-formed ones
EDGE_IDS = st.one_of(
    st.integers(-3, 60),
    st.integers(0, 40).map(np.int64),
    st.sampled_from([-12, 2**70, 0.0, 1.0, "1", None, True]),
)
CORRUPTIONS = st.lists(
    st.tuples(
        st.sampled_from(["swap", "remap", "delete", "strip", "add", "reverse", "unmap", "revert"]),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
        EDGE_IDS,
    ),
    max_size=3,
)


def corrupt(c, ops):
    """A copy of c with the given swaps, remaps and deletions applied; a strip
    deletes the whole edge star at a vertex, a reverse reverses the map order."""
    vmap, emap = dict(c.vertex_map), dict(c.edge_map)
    for op, a, b, ident in ops:
        keys, verts = list(emap), list(vmap)
        if op == "swap" and keys:
            x, y = keys[a % len(keys)], keys[b % len(keys)]
            emap[x], emap[y] = emap[y], emap[x]
        elif op == "remap" and keys:
            emap[keys[a % len(keys)]] = ident
        elif op == "delete" and keys:
            del emap[keys[a % len(keys)]]
        elif op == "strip" and verts:
            for ei in c.source.incident(verts[a % len(verts)]):
                emap.pop(ei, None)
        elif op == "add":
            emap[ident if ident is not None else a] = b % max(1, len(c.target.edges))
        elif op == "reverse":
            emap = dict(reversed(emap.items()))
        elif op == "unmap" and verts:
            del vmap[verts[a % len(verts)]]
        elif op == "revert" and verts:
            images = [*c.target.vertices, "nope", ["x"]]
            vmap[verts[a % len(verts)]] = images[b % len(images)]
    return CoveringMap(c.source, c.target, vmap, emap, c.interior)


def outcome(route, c):
    """A report as (ok, witness), or the message of a too-small window."""
    try:
        rep = route(c)
    except WindowTooSmallError as err:
        return "window too small", str(err)
    return rep.ok, rep.witness


class TestVerifyCovering:
    def test_level_projection_verifies(self):
        assert verify_covering(level_projection_covering(W, 4, 2))

    def test_broken_edge_map_detected(self):
        cov = level_projection_covering(W, 3, 2)
        bad = dict(cov.edge_map)
        # remap one edge to an arbitrary different target edge
        ei = next(iter(bad))
        bad[ei] = (bad[ei] + 1) % len(cov.target.edges)
        rep = verify_covering(
            CoveringMap(cov.source, cov.target, cov.vertex_map, bad)
        )
        assert not rep and rep.witness

    def test_identity_covering(self):
        assert verify_covering(identity_covering(schreier_graph(W, 3)))

    def test_endpoints_compared_by_value(self):
        rep = verify_covering(base_covering("loops"))
        assert not rep and "edge 2" in rep.witness

    def test_vertex_mapped_outside_the_target_detected(self):
        # an isolated source vertex has no edge whose endpoints would catch it
        tgt = Multigraph([0, 1], [(0, 0), (0, 1), (1, 1)])
        src = Multigraph([0, 1, "x"], [(0, 0), (0, 1), (1, 1)])
        cov = CoveringMap(src, tgt, {0: 0, 1: 1, "x": "nope"}, {0: 0, 1: 1, 2: 2})
        rep = verify_covering(cov)
        assert not rep and "'x'" in rep.witness

    @pytest.mark.parametrize(
        "vertex_map, edge_map, named",
        [
            ({"a": "x"}, {0: 0, 1: 0}, "'b'"),
            ({"a": "x", "b": "x"}, {0: 0, 1: 5}, "5"),
            ({"a": "x", "b": "x"}, {0: 0, 1: -1}, "-1"),
            ({"a": "x", "b": "x"}, {0: 0, 1: 0, 7: 0}, "7"),
            ({"a": "x", "b": "x"}, {0: 0, 1: 0.0}, "0.0"),
            ({"a": "x", "b": "x"}, {0: 0, "1": 0}, "'1'"),
            ({"a": "x", "b": ["x"]}, {0: 0, 1: 0}, "'b' maps to ['x']"),
        ],
    )
    def test_malformed_maps_answered(self, vertex_map, edge_map, named):
        # a map that misses a vertex, indexes past an edge list or holds a
        # non-integer edge id is a failed covering, not a KeyError,
        # IndexError or TypeError
        src = Multigraph(["a", "b"], [("a", "a"), ("b", "b")])
        tgt = Multigraph(["x"], [("x", "x")])
        rep = verify_covering(CoveringMap(src, tgt, vertex_map, edge_map))
        assert not rep and named in rep.witness

    def test_witness_independent_of_hash_seed(self):
        # edges 8 and 18 both join '0000' and '0100'; once both map to edge 2
        # of the target, the stars at both ends repeat an image, and the
        # witness is the first of them in source order
        witnesses = {
            subprocess.run(
                [sys.executable, "-c", WITNESS_RUN],
                env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC)),
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout.strip()
            for seed in range(1, 7)
        }
        assert witnesses == {"star at '0000' is not bijective onto star at '00'"}

    def test_window_too_small_raises(self):
        # a radius-1 ball cannot certify surjectivity onto the level-3 graph
        ball = cayley_ball(W, 1, 3)
        with pytest.raises(WindowTooSmallError):
            verify_covering(ball.covering)

    def test_finite_cover_missing_a_target_vertex_not_surjective(self):
        # every local check passes; the exact source cannot reach vertex 1
        src = Multigraph(["a"], [("a", "a")])
        tgt = Multigraph([0, 1], [(0, 0), (1, 1)])
        rep = verify_covering(CoveringMap(src, tgt, {"a": 0}, {0: 0}))
        assert not rep and rep.witness == "not surjective: missing vertices [1]"

    def test_isolated_target_vertex_covered(self):
        # an isolated source vertex covers it; no Markov degree table is read
        c = base_covering("isolated")
        assert verify_covering(c) and reference_verify(c)

    @given(base=BASES, ops=CORRUPTIONS)
    @example(base=("level", ":012", 4, 2), ops=[("remap", 3, 0, True)])
    @example(
        base=("level", ":012", 4, 2),
        ops=[("delete", 1, 0, 0), ("add", 0, 0, True), ("add", 0, 0, "1")],
    )
    @example(base=("level", ":012", 4, 2), ops=[("swap", 0, 9, 0), ("reverse", 0, 0, 0)])
    @example(base=("level", ":012", 4, 2), ops=[("remap", 3, 0, np.int64(40))])
    # an endpoint mismatch at edge 5 named before a malformed entry at edge 40,
    # a malformed entry at edge 2 before a mismatch, and a True key mismatched
    @example(base=("level", ":012", 4, 2), ops=[("swap", 5, 9, 0), ("remap", 40, 0, 1.0)])
    @example(base=("level", ":012", 4, 2), ops=[("remap", 2, 0, 2**70), ("swap", 5, 9, 0)])
    @example(base=("level", ":012", 4, 2), ops=[("delete", 1, 0, 0), ("add", 0, 5, True)])
    @example(base=("ball", ":012", 5, 1), ops=[("strip", 0, 0, 0)])
    @example(base=("cut", ":012", 4, 2), ops=[])
    @example(base=("ray", 4), ops=[])
    @settings(max_examples=300, deadline=None)
    def test_array_route_matches_reference_scan(self, base, ops):
        c = corrupt(base_covering(*base), ops)
        assert outcome(verify_covering, c) == outcome(reference_verify, c)


class TestLifting:
    def test_weight_pullback_preserves_markov_rows(self):
        cov = level_projection_covering(W, 4, 2)
        lifted = lift_weights(cov, markov_weights(cov.target))
        m = np.asarray(
            __import__("treespec").laplace_type_operator(lifted).as_matrix()
        )
        assert np.allclose(m.sum(axis=1), 1.0)

    def test_weights_of_another_graph_rejected(self):
        # the identity covering of the path 0-1-2 with a loop at 0; read
        # against the reordered target, edge (0, 1) would lift to (1.0, 0.5)
        g = Multigraph([0, 1, 2], [(0, 1), (1, 2), (0, 0)])
        c = identity_covering(g)
        assert lift_weights(c, markov_weights(g)).edges[0][2:4] == (0.5, 0.5)
        reordered = Multigraph([0, 1, 2], [(1, 2), (0, 1), (0, 0)])
        with pytest.raises(ValueError, match="differs from the covering target"):
            lift_weights(c, markov_weights(reordered))
        cov = level_projection_covering(W, 4, 2)
        with pytest.raises(ValueError, match="differs from the covering target"):
            lift_weights(cov, markov_weights(schreier_graph(W, 3)))

    @pytest.mark.parametrize("complex_weights", [False, True])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: level_projection_covering(W, 5, 2),  # source loops over target loops
            lambda: cayley_ball(W, 4, 3).covering,  # source edges over target loops
            lambda: identity_covering(Multigraph([0, 1, 2], [(0, 1), (1, 1), (2, 1), (0, 0)])),
        ],
        ids=["projection", "ball", "identity"],
    )
    def test_weights_equal_the_per_edge_lift(self, build, complex_weights):
        c = build()
        rng = np.random.default_rng(5)
        draw = (lambda: complex(*rng.normal(size=2))) if complex_weights else rng.normal
        target = WeightedGraph(c.target.vertices, [
            Edge(e.u, e.v, wu, wu if e.is_loop else draw(), e.label)
            for e, wu in zip(c.target.edges, (draw() for _ in c.target.edges))
        ])
        lifted = lift_weights(c, target)
        reference = WeightedGraph(c.source.vertices, per_edge_lift(c, target))
        assert lifted.edges == reference.edges
        assert lifted.weights.tobytes() == reference.weights.tobytes()
        assert serialize_graph(lifted) == serialize_graph(reference)
        # and a real target keeps its real weights
        markov = lift_weights(c, markov_weights(c.target))
        assert markov.weights.dtype == float
        assert markov.edges == per_edge_lift(c, markov_weights(c.target))

    def test_path_lifting_unique(self):
        cov = level_projection_covering(W, 3, 2)
        tgt = cov.target
        # a length-4 closed walk downstairs from vertex '11'
        walk = []
        cur = "11"
        for _ in range(4):
            ei = next(
                i for i, e in enumerate(tgt.edges)
                if cur in (e.u, e.v) and not e.is_loop
            )
            walk.append(ei)
            e = tgt.edges[ei]
            cur = e.v if e.u == cur else e.u
        start = next(v for v in cov.source.vertices if cov.phi(v) == "11")
        lifted = lift_path(cov, "11", walk, start)
        assert len(lifted) == 5
        # the lift projects back onto the walk
        proj = [cov.phi(v) for v in lifted]
        assert proj[0] == "11"

    @given(
        w=OMEGAS,
        n=st.integers(1, 3),
        extra=st.integers(1, 3),
        steps=st.lists(st.integers(0, 3), max_size=12),
        origin=st.integers(0, 7),
    )
    @settings(max_examples=40, deadline=None)
    def test_lifts_are_unique_and_disjoint(self, w, n, extra, steps, origin):
        cov = level_projection_covering(w, n + extra, n)
        tgt = cov.target
        # a target walk: at each step take the chosen incident edge
        walk, verts = [], [tgt.vertices[origin % tgt.n]]
        for s in steps:
            ids = tgt.incident(verts[-1])
            ti = ids[s % len(ids)]
            e = tgt.edges[ti]
            walk.append(ti)
            verts.append(e.v if e.u == verts[-1] else e.u)
        fiber = [v for v in cov.source.vertices if cov.phi(v) == verts[0]]
        lifts = [lift_path(cov, verts[0], walk, start) for start in fiber]
        src = cov.source
        for path in lifts:
            assert [cov.phi(v) for v in path] == verts
            for p, q, ti in zip(path, path[1:], walk):
                ends = [
                    {src.edges[ei].u, src.edges[ei].v}
                    for ei in src.incident(p) if cov.edge_map[ei] == ti
                ]
                assert ends == [{p, q}]
        # lifts from distinct starts never meet: each step permutes the fiber
        for step in zip(*lifts):
            assert len(set(step)) == len(fiber)

    @pytest.mark.parametrize("ti", [12, 17, -1, -12, 1.0, "0", None, True])
    def test_bad_target_edge_id_named(self, ti):
        # the level-2 target has edges 0..11; a bad id is named, not read as
        # a list index or compared with the edge map
        cov = level_projection_covering(W, 3, 2)
        start = next(v for v in cov.source.vertices if cov.phi(v) == "11")
        with pytest.raises(ValueError, match=re.escape(f"target edge {ti!r} is not an edge id")):
            lift_path(cov, "11", [ti], start)

    def test_numpy_target_edge_id_accepted(self):
        cov = level_projection_covering(W, 3, 2)
        start = next(v for v in cov.source.vertices if cov.phi(v) == "11")
        ti = cov.target.incident("11")[0]
        assert lift_path(cov, "11", [np.int64(ti)], start) == lift_path(cov, "11", [ti], start)

    def test_edge_not_at_the_walk_named(self):
        cov = level_projection_covering(W, 3, 2)
        start = next(v for v in cov.source.vertices if cov.phi(v) == "11")
        ti = next(i for i, e in enumerate(cov.target.edges) if "11" not in (e.u, e.v))
        with pytest.raises(ValueError, match=f"target edge {ti} not incident to '11'"):
            lift_path(cov, "11", [ti], start)

    def test_lift_not_unique_named(self):
        # two source loops over the one target loop: no unique lift
        src = Multigraph(["a"], [("a", "a"), ("a", "a")])
        tgt = Multigraph(["x"], [("x", "x")])
        cov = CoveringMap(src, tgt, {"a": "x"}, {0: 0, 1: 0})
        with pytest.raises(ValueError, match="lift not unique at 'a': 2 candidate edges"):
            lift_path(cov, "x", [0], "a")

    def test_bad_start_rejected(self):
        cov = level_projection_covering(W, 3, 2)
        start = next(v for v in cov.source.vertices if cov.phi(v) != "11")
        with pytest.raises(BadStartError):
            lift_path(cov, "11", [], start)

    @pytest.mark.parametrize("start", ["nope", ["000"]])
    def test_start_outside_the_source_rejected(self, start):
        # neither a KeyError from the vertex map nor a TypeError from hashing
        cov = level_projection_covering(W, 3, 2)
        with pytest.raises(BadStartError, match=re.escape(f"{start!r} is not in the fiber")):
            lift_path(cov, "11", [], start)

    @pytest.mark.parametrize(
        "vertex, edge, named",
        [
            ("000", None, "vertex '000' unmapped"),
            ("000", "zz", "vertex '000' maps to 'zz', not a target vertex"),
            (3, None, "source edge 3 unmapped"),
            (3, 99, "edge map 3 -> 99 out of range"),
            (3, 1.0, "edge map 3 -> 1.0 is not a pair of edge ids"),
        ],
    )
    def test_weights_of_a_malformed_covering_rejected(self, vertex, edge, named):
        # an unmapped vertex or edge was a KeyError, edge id 99 an IndexError,
        # 1.0 a TypeError, and a vertex mapped outside the target passed
        cov = level_projection_covering(W, 3, 2)
        vmap, emap = dict(cov.vertex_map), dict(cov.edge_map)
        maps = vmap if isinstance(vertex, str) else emap
        if edge is None:
            del maps[vertex]
        else:
            maps[vertex] = edge
        bad = CoveringMap(cov.source, cov.target, vmap, emap)
        with pytest.raises(ValueError, match=re.escape(named)):
            lift_weights(bad, markov_weights(cov.target))


def ray_window(size):
    """The ray segment 0..size; its last vertex lacks the edge onward."""
    return identity_covering(upsilon_graph(UpsilonSpec("ray", size)), set(range(size)))


def tree_window(depth, interior_depth):
    """The binary tree to ``depth``, complete up to ``interior_depth``."""
    g = binary_tree(depth)
    return identity_covering(g, {v for v in g.vertices if len(v) <= interior_depth})


class TestFiberCount:
    def test_finite_cover_counts_whole_fiber(self):
        cov = level_projection_covering(W, 5, 2)
        v = cov.source.vertices[0]
        assert fiber_count(cov, v, 40) == 8

    def test_window_guard(self):
        ball = cayley_ball(W, 4, 2)
        with pytest.raises(WindowTooSmallError):
            fiber_count(ball.covering, 0, 9)

    def test_radius_not_an_int_named(self):
        # 2.5 counted the fiber points within radius 2
        ball = cayley_ball(W, 6, 2)
        with pytest.raises(ValueError, match="radius 2.5 is not an int"):
            fiber_count(ball.covering, 0, 2.5)
        assert fiber_count(ball.covering, 0, np.int64(2)) == fiber_count(ball.covering, 0, 2)

    def test_radius_not_an_int_named_on_the_ray(self):
        with pytest.raises(ValueError, match="radius 2.5 is not an int"):
            fiber_count(ray_window(13), 0, 2.5)
        assert fiber_count(ray_window(13), 0, np.int64(12)) == fiber_count(ray_window(13), 0, 12)

    def test_monotone_in_radius(self):
        ball = cayley_ball(W, 6, 2)
        counts = [fiber_count(ball.covering, 0, k) for k in range(7)]
        assert counts == sorted(counts)
        assert counts[0] == 1  # the base point itself

    def test_unknown_base_vertex_raises(self):
        with pytest.raises(ValueError, match="not in the graph"):
            fiber_count(identity_covering(schreier_graph(W, 4)), "nope", 6)

    @pytest.mark.parametrize("interior_depth", range(6))
    def test_window_too_small_raises(self, interior_depth):
        # a depth-6 tree holds no ball of radius 7 or more
        with pytest.raises(WindowTooSmallError):
            fiber_count(tree_window(6, interior_depth), "", 12)

    def test_window_cut_short_near_the_base_raises(self):
        # the branch under "1" stops at "1" while the branch under "0" is
        # interior to depth 7
        keep = [v for v in binary_tree(8).vertices if v[:1] != "1" or v == "1"]
        g = Multigraph(keep, [(v[:-1], v, "child") for v in keep if v])
        window = identity_covering(g, {v for v in keep if len(v) < 8 and v != "1"})
        with pytest.raises(WindowTooSmallError, match="'1' at distance 1 "):
            fiber_count(window, "", 7)

    def test_window_too_small_names_the_nearest_rim_vertex(self):
        # the depth-3 vertices are the nearest outside the interior; listed
        # in reverse, '111' comes first among them, though a search from the
        # root reaches '000' first
        g = binary_tree(6)
        g = Multigraph(g.vertices[::-1], g.edges)
        window = identity_covering(g, {v for v in g.vertices if len(v) <= 2})
        with pytest.raises(WindowTooSmallError, match="radius 5: '111' at distance 3 "):
            fiber_count(window, "", 5)

    def test_window_of_radius_k_suffices(self):
        # every vertex closer than k interior: the ball of radius k is exact
        assert fiber_count(tree_window(6, 5), "", 6) == 1
        with pytest.raises(WindowTooSmallError):
            fiber_count(tree_window(6, 5), "", 7)


class TestResiduals:
    def test_constant_eigenvector_pulls_back_exactly(self):
        cov = level_projection_covering(W, 5, 2)
        f = np.ones(4)
        rec = hulanicki_residual(cov, 1.0, f, "finite-target", 40)
        assert rec.residual < 1e-12

    def test_finite_cover_eigenpairs_pull_back_exactly(self):
        cov = level_projection_covering(W, 5, 2)
        vals, vecs = eigenpairs(cov.target)
        for i, lam in enumerate(vals):
            rec = hulanicki_residual(cov, float(lam), vecs[:, i], "finite-target", 40)
            assert rec.residual < 1e-9, lam

    def test_window_pullback_zero_on_exact_cover(self):
        cov = level_projection_covering(W, 6, 2)
        vals, vecs = eigenpairs(cov.target)
        for i, lam in enumerate(vals):
            rec = window_pullback_residual(cov, float(lam), vecs[:, i])
            assert rec.residual < 1e-12

    def test_vanishing_truncated_pullback_refused(self):
        # B_0 of the base holds only the base, and f is zero at its image
        cov = level_projection_covering(W, 4, 2)
        f = np.zeros(4)
        f[cov.target.index("11")] = 1.0
        assert cov.phi(cov.source.vertices[0]) != "11"
        with pytest.raises(ValueError, match="truncated pullback vanishes; enlarge k"):
            hulanicki_residual(cov, 1.0, f, "subexp", 0)

    def test_empty_fiber_ball_refused(self):
        # f reaches target distance N = 2 from the base's image, so the
        # bound divides by alpha_(k-N), the fiber count within radius -1
        cov = level_projection_covering(W, 4, 2)
        base = cov.phi(cov.source.vertices[0])
        dist = _bfs_distances(cov.target, base)
        far = int(dist.argmax())
        assert dist[far] == 2
        f = np.zeros(4)
        f[[cov.target.index(base), far]] = 1.0
        with pytest.raises(ValueError, match=re.escape("alpha_(k-N) = 0 at k=1, N=2; enlarge k")):
            hulanicki_residual(cov, 1.0, f, "subexp", 1)

    @pytest.mark.parametrize(
        "f, mode, message",
        [
            (np.zeros(4), "subexp", "f must be a nonzero vector on the target vertices"),
            (np.ones(4), "x", "unknown mode 'x'"),
        ],
        ids=["zero_f", "mode"],
    )
    def test_bad_argument_named(self, f, mode, message):
        cov = level_projection_covering(W, 4, 2)
        with pytest.raises(ValueError, match=re.escape(message)):
            hulanicki_residual(cov, 1.0, f, mode, 3)

    def test_non_eigenpair_rejected(self):
        cov = level_projection_covering(W, 4, 2)
        with pytest.raises(NotAnEigenpairError):
            hulanicki_residual(cov, 0.123, np.ones(4), "finite-target", 30)

    def test_subexp_bound_sound_on_cayley_ball(self):
        ball = cayley_ball(W, 8, 2)
        vals, vecs = eigenpairs(ball.covering.target)
        for i, lam in enumerate(vals):
            for k in (3, 5):
                rec = hulanicki_residual(
                    ball.covering, float(lam), vecs[:, i], "subexp", k
                )
                assert rec.residual ** 2 <= rec.theoretical_bound + 1e-9

    def test_window_residuals_decrease_with_radius(self):
        # pinned harness values for the smallest eigenvalue of the level-2
        # graph: strictly positive, strictly decreasing in the ball radius
        vals, vecs = eigenpairs(schreier_graph(W, 2))
        lam, f = float(vals[0]), vecs[:, 0]
        res = []
        for r in (4, 6, 8):
            cov = cayley_ball(W, r, 2).covering
            res.append(window_pullback_residual(cov, lam, f).residual)
        assert all(x > 0 for x in res)
        assert res[0] > res[1] > res[2]

    @pytest.mark.parametrize(
        "source, k, mode",
        [("ball", 3, "subexp"), ("ball", 5, "subexp"),
         ("level", 1, "finite-target"), ("level", 3, "subexp")],
    )
    def test_harness_matches_dense_lift(self, source, k, mode):
        if source == "ball":
            cov = cayley_ball(W, 8, 2).covering
        else:
            cov = level_projection_covering(W, 5, 2)
        vals, vecs = eigenpairs(cov.target)
        trunc = k + cov.target.n + 1 if mode == "finite-target" else k
        for i, lam in enumerate(vals):
            f = vecs[:, i]
            rec = hulanicki_residual(cov, float(lam), f, mode, k)
            assert abs(rec.residual - dense_residual(cov, lam, f, trunc)) < 1e-14
            win = window_pullback_residual(cov, float(lam), f)
            assert abs(win.residual - dense_residual(cov, lam, f)) < 1e-14

    def test_vanishing_pullback_named(self):
        # the 5-element ball reaches only 011 and 111, where f = delta_000 is 0
        cov = cayley_ball(W, 1, 3).covering
        f = np.eye(cov.target.n)[0]
        with pytest.raises(ValueError, match="pullback vanishes"):
            window_pullback_residual(cov, 1.0, f)

    def test_inclusion_report_builds_no_edge_view(self):
        # the ball, its target and the report read the columns only
        ball = cayley_ball(W, 8, 2)
        spectral_inclusion_report(ball.covering, [4, 5])
        assert "edges" not in vars(ball.graph) and "edges" not in vars(ball.covering.target)

    def test_isolated_target_vertex_raises(self):
        tgt = Multigraph(["x", "y"], [("x", "x")])
        src = Multigraph(["a", "b"], [("a", "a")])
        cov = CoveringMap(src, tgt, {"a": "x", "b": "y"}, {0: 0})
        with pytest.raises(IsolatedVertexError):
            hulanicki_residual(cov, 1.0, [1.0, 0.0], "subexp", 1)
        with pytest.raises(IsolatedVertexError):
            window_pullback_residual(cov, 1.0, [1.0, 0.0])

    @pytest.mark.parametrize(
        "vertex_map, named",
        [
            ({0: 0, 1: 1}, "vertex 'x' unmapped"),
            ({0: 0, 1: 1, "x": "nope"}, "'nope'"),
            ({0: 0, 1: 1, "x": ["x"]}, re.escape("vertex 'x' maps to ['x']")),
        ],
    )
    def test_vertex_map_faults_named(self, vertex_map, named):
        tgt = Multigraph([0, 1], [(0, 0), (0, 1), (1, 1)])
        src = Multigraph([0, 1, "x"], [(0, 0), (0, 1), (1, 1)])
        cov = CoveringMap(src, tgt, vertex_map, {0: 0, 1: 1, 2: 2})
        with pytest.raises(ValueError, match=named):
            hulanicki_residual(cov, 1.0, [1.0, 1.0], "subexp", 1)
        with pytest.raises(ValueError, match=named):
            window_pullback_residual(cov, 1.0, [1.0, 1.0])

    def test_support_out_of_reach_of_the_base_named(self):
        # two looped vertices: the base's image 0 never reaches vertex 1
        cov = identity_covering(Multigraph([0, 1], [(0, 0), (1, 1)]))
        with pytest.raises(ValueError, match="supported at 1,"):
            hulanicki_residual(cov, 1.0, [0.0, 1.0], "subexp", 1)
        with pytest.raises(ValueError, match="supported at 1,"):
            spectral_inclusion_report(cov, [1])

    @pytest.mark.parametrize("k", [4.5, 4.0, "4", None])
    def test_radius_not_an_int_named(self, k):
        # k = 4.5 gave records labelled 4.5 whose alphas were taken at radii
        # -1.5, 1.5, 4.5 and 7.5 and whose residuals were those of k = 4
        ball = cayley_ball(W, 12, 2)
        with pytest.raises(ValueError, match=re.escape(f"radius {k!r} is not an int")):
            spectral_inclusion_report(ball.covering, [4, k])
        with pytest.raises(ValueError, match=re.escape(f"radius {k!r} is not an int")):
            hulanicki_residual(ball.covering, 1.0, np.ones(4), "subexp", k)

    def test_numpy_radius_accepted(self):
        ball = cayley_ball(W, 12, 2)
        assert spectral_inclusion_report(ball.covering, [np.int64(4)]) == (
            spectral_inclusion_report(ball.covering, [4])
        )

    def test_inclusion_report_refuses_empty_schedule(self):
        # no radius, no record: every best residual would read inf
        with pytest.raises(ValueError, match="at least one radius"):
            spectral_inclusion_report(level_projection_covering(W, 4, 2), [])

    def test_inclusion_report_refuses_target_above_cap(self):
        cov = level_projection_covering(W, 4, 3)
        with pytest.raises(ResourceLimitError):
            spectral_inclusion_report(cov, [2], config=RunConfig(max_vertices=4))

    @pytest.mark.parametrize("mode, radii", [("subexp", [6, 8]), ("finite-target", [2, 3])])
    def test_inclusion_report_on_irregular_target(self, mode, radii):
        # the far end of the ray segment has degree 3, the rest degree 4, so
        # the Markov operator is not symmetric; the identity covering pulls
        # every eigenpair back exactly
        ray = upsilon_graph(UpsilonSpec("ray", 6))
        rep = spectral_inclusion_report(identity_covering(ray), radii, mode)
        ref = np.sort(np.linalg.eigvals(markov_operator(ray).as_matrix()).real)
        assert np.abs(np.array(rep.eigenvalues) - ref).max() < 1e-12
        assert max(rep.best_residuals) < 1e-12

    def test_inclusion_report_improves_with_schedule(self):
        ball = cayley_ball(W, 8, 2)
        rep_small = spectral_inclusion_report(ball.covering, [3])
        rep_big = spectral_inclusion_report(ball.covering, [3, 4, 5])
        for a, b in zip(rep_big.best_residuals, rep_small.best_residuals):
            assert a <= b + 1e-12


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_tables_match_dict_route(c, handed):
    """The tables the builder handed to ``c``, named in ``handed``, are bit for
    bit those the public constructor derives from c's maps and interior set:
    the image and edge arrays, the interior mask, and the source distances by
    a breadth-first search."""
    interior = None if c.interior is None else set(c.interior)
    rebuilt = CoveringMap(c.source, c.target, dict(c.vertex_map), dict(c.edge_map), interior)
    assert set(handed) <= set(vars(c))
    for name in handed:
        got, want = vars(c)[name], getattr(rebuilt, name)
        if name == "_edge_entries":
            assert got[2] is want[2] is None
            for a, b in zip(got[:2], want[:2]):
                assert_same_array(a, b)
        else:
            assert_same_array(got, want)


class TestHandedTables:
    """Coverings built by ``level_projection_covering`` and ``cayley_ball``
    take the tables their builder holds; the public constructor's dict route
    and the breadth-first search are the second route to each."""

    TABLES = ("_image", "_edge_entries", "_edge_image", "_interior")

    @given(w=WREATH_OMEGAS, m=st.integers(2, 10), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_level_projection_tables(self, w, m, data):
        n = data.draw(st.integers(1, m - 1))
        c = level_projection_covering(w, m, n)
        assert_tables_match_dict_route(c, self.TABLES)
        assert "_base" not in vars(c)

    @given(w=WREATH_OMEGAS, radius=st.integers(1, 18), level=st.integers(1, 3))
    @example(w=OmegaWord.parse(":012"), radius=18, level=3)
    @example(w=OmegaWord.parse(":0"), radius=18, level=1)
    @settings(max_examples=30, deadline=None)
    def test_cayley_ball_tables(self, w, radius, level):
        ball = cayley_ball(w, radius, level)
        c = ball.covering
        assert_tables_match_dict_route(c, (*self.TABLES, "_base"))
        assert c.interior == range(ball.enumeration.sizes[radius - 1])

    @given(w=WREATH_OMEGAS, radius=st.integers(1, 18), level=st.integers(1, 3), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cayley_lifts_follow_the_neighbour_table(self, w, radius, level, data):
        ball = cayley_ball(w, radius, level)
        c, tgt = ball.covering, ball.covering.target
        # a walk shorter than the radius stays where every star is complete
        letters = data.draw(st.lists(st.integers(0, 3), max_size=radius - 1))
        at = {}  # the target's g-edge at each vertex position
        for ti, ((a, b), g) in enumerate(zip(tgt.ends.tolist(), tgt.labels)):
            at[a, g] = at[b, g] = ti
        y, walk = tgt.index(c.phi(0)), []
        for j in letters:
            walk.append(at[y, GENERATORS[j]])
            a, b = tgt.ends[walk[-1]].tolist()
            y = b if a == y else a
        want = [0]
        for j in letters:
            want.append(int(ball.enumeration.neighbors[want[-1], j]))
        assert lift_path(c, c.phi(0), walk, 0) == want

    @pytest.mark.parametrize("mode, radii", [("subexp", [3, 4, 5]), ("finite-target", [2])])
    def test_cayley_report_searches_the_target_only(self, monkeypatch, mode, radii):
        # the window's distances are its census shells; only the level target is searched
        searched = []

        def bfs(g, v):
            searched.append(g.n)
            return _bfs_distances(g, v)

        monkeypatch.setattr("treespec.covering._bfs_distances", bfs)
        c = cayley_ball(W, 13, 2).covering
        spectral_inclusion_report(c, radii, mode)
        assert searched == ([c.target.n] if mode == "subexp" else [])
