import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treespec import (
    BadStartError,
    CoveringMap,
    IsolatedVertexError,
    Multigraph,
    NotAnEigenpairError,
    OmegaWord,
    ResourceLimitError,
    RunConfig,
    UpsilonSpec,
    WindowTooSmallError,
    cayley_ball,
    fiber_count,
    folner_balls,
    hulanicki_residual,
    laplace_type_operator,
    level_projection_covering,
    lift_path,
    lift_weights,
    markov_operator,
    markov_weights,
    schreier_graph,
    spectral_inclusion_report,
    upsilon_graph,
    verify_covering,
    window_pullback_residual,
)
from treespec.graphs import _bfs_distances

W = OmegaWord.parse(":012")
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


def dense_residual(c, lam, f, radius=None):
    """Reference route: the pullback of f, cut to the radius ball around the
    first source vertex, against the dense operator of the weighted lift."""
    h = laplace_type_operator(lift_weights(c, markov_weights(c.target))).as_matrix().real
    f = f / np.linalg.norm(f)
    dist = _bfs_distances(c.source, c.source.vertices[0])
    fk = np.array([
        f[c.target.index(c.phi(v))] if radius is None or dist[v] <= radius else 0.0
        for v in c.source.vertices
    ])
    return float(np.linalg.norm(h @ fk - lam * fk)) / float(np.linalg.norm(fk))


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
        # 1 and "1" print alike; the rim loop at c must not cover the loop at "1"
        tgt = Multigraph([1, "1"], [(1, 1), ("1", "1")])
        src = Multigraph(["a", "b", "c"], [("a", "a"), ("b", "b"), ("c", "c")])
        cov = CoveringMap(
            src, tgt, {"a": 1, "b": "1", "c": 1}, {0: 0, 1: 1, 2: 1},
            interior={"a", "b"},
        )
        rep = verify_covering(cov)
        assert not rep and "edge 2" in rep.witness

    def test_vertex_mapped_outside_the_target_detected(self):
        # an isolated source vertex has no edge whose endpoints would catch it
        tgt = Multigraph([0, 1], [(0, 0), (0, 1), (1, 1)])
        src = Multigraph([0, 1, "x"], [(0, 0), (0, 1), (1, 1)])
        cov = CoveringMap(src, tgt, {0: 0, 1: 1, "x": "nope"}, {0: 0, 1: 1, 2: 2})
        rep = verify_covering(cov)
        assert not rep and "'x'" in rep.witness

    def test_window_too_small_raises(self):
        # a radius-1 ball cannot certify surjectivity onto the level-3 graph
        ball = cayley_ball(W, 1, 3)
        with pytest.raises(WindowTooSmallError):
            verify_covering(ball.covering)


class TestLifting:
    def test_weight_pullback_preserves_markov_rows(self):
        cov = level_projection_covering(W, 4, 2)
        lifted = lift_weights(cov, markov_weights(cov.target))
        m = np.asarray(
            __import__("treespec").laplace_type_operator(lifted).as_matrix()
        )
        assert np.allclose(m.sum(axis=1), 1.0)

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

    def test_bad_start_rejected(self):
        cov = level_projection_covering(W, 3, 2)
        start = next(v for v in cov.source.vertices if cov.phi(v) != "11")
        with pytest.raises(BadStartError):
            lift_path(cov, "11", [], start)


def ray_window(size):
    """The ray segment 0..size; its last vertex lacks the edge onward."""
    return identity_covering(upsilon_graph(UpsilonSpec("ray", size)), set(range(size)))


def tree_window(depth, interior_depth):
    """The binary tree to ``depth``, complete up to ``interior_depth``."""
    g = binary_tree(depth)
    return identity_covering(g, {v for v in g.vertices if len(v) <= interior_depth})


class TestFolner:
    # the infinite graphs are read through windows of radius k_max + 1
    def test_ray_is_folner(self):
        rep = folner_balls(ray_window(13), 0, 12)
        assert rep.subexp_evidence
        assert rep.boundary_ratios[-1] < 0.2

    def test_binary_tree_is_not(self):
        rep = folner_balls(tree_window(13, 12), "", 12)
        assert not rep.subexp_evidence
        assert min(rep.boundary_ratios) > 0.5

    def test_unknown_base_vertex_raises(self):
        with pytest.raises(ValueError, match="not in the graph"):
            folner_balls(identity_covering(schreier_graph(W, 4)), "nope", 6)

    def test_sizes_linear_on_ray(self):
        rep = folner_balls(ray_window(9), 0, 8)
        assert rep.sizes == tuple(k + 1 for k in range(9))

    @pytest.mark.parametrize("interior_depth", range(6))
    def test_window_too_small_raises(self, interior_depth):
        # a depth-6 tree holds no ball of radius 7 or more: the sizes would
        # stop at 127 and read as subexponential growth
        with pytest.raises(WindowTooSmallError):
            folner_balls(tree_window(6, interior_depth), "", 12)

    def test_window_cut_short_near_the_base_raises(self):
        # the branch under "1" stops at "1" while the branch under "0" is
        # interior to depth 7; the sizes would read 1, 3, 5, 9, ...
        keep = [v for v in binary_tree(8).vertices if v[:1] != "1" or v == "1"]
        g = Multigraph(keep, [(v[:-1], v, "child") for v in keep if v])
        window = identity_covering(g, {v for v in keep if len(v) < 8 and v != "1"})
        with pytest.raises(WindowTooSmallError):
            folner_balls(window, "", 7)

    def test_window_of_radius_k_max_plus_one_suffices(self):
        assert folner_balls(tree_window(6, 5), "", 5).sizes[-1] == 63
        with pytest.raises(WindowTooSmallError):
            folner_balls(tree_window(6, 5), "", 6)


class TestFiberCount:
    def test_finite_cover_counts_whole_fiber(self):
        cov = level_projection_covering(W, 5, 2)
        v = cov.source.vertices[0]
        assert fiber_count(cov, v, 40) == 8

    def test_window_guard(self):
        ball = cayley_ball(W, 4, 2)
        with pytest.raises(WindowTooSmallError):
            fiber_count(ball.covering, 0, 9)

    def test_monotone_in_radius(self):
        ball = cayley_ball(W, 6, 2)
        counts = [fiber_count(ball.covering, 0, k) for k in range(7)]
        assert counts == sorted(counts)
        assert counts[0] == 1  # the base point itself


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

    def test_isolated_target_vertex_raises(self):
        tgt = Multigraph(["x", "y"], [("x", "x")])
        src = Multigraph(["a", "b"], [("a", "a")])
        cov = CoveringMap(src, tgt, {"a": "x", "b": "y"}, {0: 0})
        with pytest.raises(IsolatedVertexError):
            hulanicki_residual(cov, 1.0, [1.0, 0.0], "subexp", 1)
        with pytest.raises(IsolatedVertexError):
            window_pullback_residual(cov, 1.0, [1.0, 0.0])

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
