import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treespec import (
    NotAPathError,
    OmegaWord,
    UpsilonSpec,
    WindowTooSmallError,
    cayley_ball,
    check_isomorphic,
    level_projection_covering,
    path_canonical_form,
    schreier_graph,
    upsilon_graph,
    verify_covering,
    word_action,
)

OMEGAS = st.builds(
    OmegaWord,
    st.lists(st.integers(0, 2), max_size=1).map(tuple),
    st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
)


class TestSchreierGraph:
    @given(w=OMEGAS, n=st.integers(1, 6))
    def test_four_regular_with_loops(self, w, n):
        g = schreier_graph(w, n)
        assert g.n == 1 << n
        for v in g.vertices:
            assert g.degree(v) == 4

    @given(w=OMEGAS, n=st.integers(1, 5))
    def test_edges_realize_generator_actions(self, w, n):
        g = schreier_graph(w, n)
        for gen in "abcd":
            act = word_action(gen, w, n)
            pairs = {
                frozenset((e.u, e.v)) for e in g.edges if e.label == gen
            }
            expect = {
                frozenset((f"{i:0{n}b}", f"{act.apply(i):0{n}b}"))
                for i in range(1 << n)
            }
            assert pairs == expect

    @given(w=OMEGAS, n=st.integers(1, 6))
    def test_connected(self, w, n):
        # levels are single orbits for any sequence: a, b, c, d reach all
        assert schreier_graph(w, n).is_connected()

    def test_level1_is_two_vertices(self):
        g = schreier_graph(OmegaWord.parse(":012"), 1)
        assert sorted(g.vertices) == ["0", "1"]
        # a joins them; b, c, d are loops at both
        non_loops = [e for e in g.edges if not e.is_loop]
        assert len(non_loops) == 1 and non_loops[0].label == "a"


class TestUpsilonModel:
    @given(w=OMEGAS.filter(lambda w: w.in_omega2), n=st.integers(2, 7))
    @settings(max_examples=25, deadline=None)
    def test_level_graphs_match_model(self, w, n):
        got = check_isomorphic(
            schreier_graph(w, n), upsilon_graph(UpsilonSpec("finite", n))
        )
        assert got, got.witness

    def test_middle_exception_variant_contradicts_levels(self):
        # the variant differs from the computed level graph already at n = 2
        w = OmegaWord.parse(":012")
        got = check_isomorphic(
            schreier_graph(w, 2),
            upsilon_graph(UpsilonSpec("finite", 2, middle_exception=True)),
        )
        assert not got
        assert "multiplicity mismatch" in got.witness

    def test_ray_and_line_segments(self):
        ray = upsilon_graph(UpsilonSpec("ray", 6))
        assert ray.degree(0) == 4  # three loops + single edge
        assert all(ray.degree(v) == 4 for v in range(1, 6))
        line = upsilon_graph(UpsilonSpec("line", 4))
        assert line.n == 9
        assert all(line.degree(v) == 4 for v in range(-3, 4))

    def test_not_a_path_rejected(self):
        from treespec import Multigraph

        cycle = Multigraph([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(NotAPathError):
            path_canonical_form(cycle)

    def test_isomorphism_detects_flip(self):
        # a path with an asymmetric loop pattern matches its own reversal
        g = upsilon_graph(UpsilonSpec("finite", 3))
        form = path_canonical_form(g)
        assert len(form.order) == 8
        assert form.loops[0] == 3 and form.loops[-1] == 3


class TestCoverings:
    @given(w=OMEGAS, m=st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_level_projection_is_covering(self, w, m):
        cov = level_projection_covering(w, m, m - 1)
        rep = verify_covering(cov)
        assert rep, rep.witness

    def test_projection_fibers_have_constant_size(self):
        w = OmegaWord.parse(":012")
        cov = level_projection_covering(w, 5, 2)
        fibers = {}
        for v in cov.source.vertices:
            fibers.setdefault(cov.phi(v), 0)
            fibers[cov.phi(v)] += 1
        assert set(fibers.values()) == {8}

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            level_projection_covering(OmegaWord.parse(":012"), 2, 2)


class TestCayleyBall:
    def test_ball_covers_level_graph(self):
        w = OmegaWord.parse(":012")
        ball = cayley_ball(w, 5, 2)
        rep = verify_covering(ball.covering)
        assert rep, rep.witness
        assert ball.graph.n == 68

    def test_interior_has_full_stars(self):
        w = OmegaWord.parse(":01")
        ball = cayley_ball(w, 4, 1)
        for v in ball.covering.interior_vertices():
            assert ball.graph.degree(v) == 4

    def test_identity_maps_to_all_ones(self):
        w = OmegaWord.parse(":012")
        ball = cayley_ball(w, 3, 3)
        assert ball.covering.phi(0) == "111"

    def test_level_deeper_than_comparison_depth(self):
        # radius 3 needs comparison depth 5; the level-6 labels need depth 6
        ball = cayley_ball(OmegaWord.parse(":012"), 3, 6)
        assert ball.enumeration.depth == 6 and ball.graph.n == 23
        assert ball.covering.phi(0) == "111111"
        # the local checks pass; 23 elements cannot reach all 64 vertices
        with pytest.raises(WindowTooSmallError):
            verify_covering(ball.covering)
