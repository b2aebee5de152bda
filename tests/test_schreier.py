import ast
import dataclasses
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treespec import (
    DEFAULT_CONFIG,
    Edge,
    LevelCertificate,
    Multigraph,
    NotAPathError,
    OmegaWord,
    PathForm,
    RunConfig,
    ResourceLimitError,
    UpsilonSpec,
    WindowTooSmallError,
    cayley_ball,
    check_isomorphic,
    dihedral_reduction_check,
    level_certificate,
    level_path_form,
    level_projection_covering,
    path_canonical_form,
    schreier_graph,
    spectrum_sweep,
    upsilon_graph,
    verify_covering,
    word_action,
)
from treespec import schreier
from treespec.actions import _generator_table
from treespec.schreier import _certify_table, _check_level, _level_edges

from test_growth import reference_enumeration

OMEGAS = st.builds(
    OmegaWord,
    st.lists(st.integers(0, 2), max_size=1).map(tuple),
    st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
)
# one symbol throughout: the letter that skips it (d for ":0") is never active
ONE_SYMBOL = st.builds(
    lambda s, k: OmegaWord((s,) * k, (s,)), st.integers(0, 2), st.integers(0, 1)
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


class TestLevelArgument:
    """A level that is not an int raised a bare TypeError from ``1 << n`` or
    from a comparison such as ``m > n >= 1``, and a ray of length 2.5 was
    accepted until ``upsilon_graph`` ran."""

    W = OmegaWord.parse(":012")

    @pytest.mark.parametrize(
        "call",
        [
            spectrum_sweep,
            level_path_form,
            schreier_graph,
            dihedral_reduction_check,
            lambda w, n: UpsilonSpec("ray", n),
            lambda w, n: UpsilonSpec("finite", n),
            lambda w, n: level_projection_covering(w, n, 1),
            lambda w, n: level_projection_covering(w, 4, n),
            lambda w, n: cayley_ball(w, 3, n),
        ],
        ids=["sweep", "path_form", "schreier_graph", "dihedral", "ray", "finite",
             "projection_source", "projection_target", "cayley_ball"],
    )
    @pytest.mark.parametrize("level", [2.5, 3.0, "3", None])
    def test_level_not_an_int_named(self, call, level):
        with pytest.raises(ValueError, match=re.escape(f"level {level!r} is not an int")):
            call(self.W, level)

    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 5, 7, 8, 9, 4095, 4096, 4097, np.int64(64)])
    def test_level_size_and_cap(self, cap):
        # the cap is read by its bit length: the same levels as 2^n > cap
        config = RunConfig(max_vertices=cap)
        for n in range(1, 15):
            if 1 << n > cap:
                with pytest.raises(ResourceLimitError, match=rf"2\^{n} vertices exceed cap {cap}"):
                    _check_level(n, config)
            else:
                assert _check_level(n, config) == 1 << n

    def test_refused_level_builds_no_power(self):
        # 2^(10^8) alone takes 12.5 MB
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                _check_level(10**8, DEFAULT_CONFIG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("cap", [float("nan"), 2.5, 4096.0, "4096", None])
    def test_cap_not_an_int_named(self, cap):
        # every comparison with a NaN cap is false, so a NaN cap held no level
        with pytest.raises(ValueError, match=re.escape(f"max_vertices {cap!r} is not an int")):
            RunConfig(max_vertices=cap)

    @pytest.mark.parametrize("cap", [float("nan"), 2.5, 1 << 14])
    def test_cap_cannot_be_reassigned(self, cap):
        # a NaN cap assigned after the check raised "cannot convert float NaN
        # to integer" from schreier_graph, and 2.5 passed as 2
        config = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_vertices = cap
        assert config.max_vertices == DEFAULT_CONFIG.max_vertices

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda w: UpsilonSpec("cycle", 3), "unknown kind 'cycle'"),
            (lambda w: UpsilonSpec("ray", 0), "size must be >= 1"),
            (lambda w: cayley_ball(w, 0, 2), "radius and level must be >= 1"),
        ],
        ids=["upsilon_kind", "upsilon_size", "cayley_radius"],
    )
    def test_bad_argument_named(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(self.W)

    @pytest.mark.parametrize("level", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_levels_accepted(self, level):
        assert schreier_graph(self.W, level).edges == schreier_graph(self.W, 3).edges
        assert level_path_form(self.W, level) == level_path_form(self.W, 3)
        assert spectrum_sweep(self.W, level) == spectrum_sweep(self.W, 3)
        assert dihedral_reduction_check(self.W, level).t_squared_is_identity
        assert upsilon_graph(UpsilonSpec("ray", level)).n == 4
        assert upsilon_graph(UpsilonSpec("line", level)).n == 7
        assert level_projection_covering(self.W, level, 2).source.n == 8
        assert level_projection_covering(self.W, 4, level).target.n == 8
        assert cayley_ball(self.W, 3, level).covering.target.n == 8


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

    @pytest.mark.parametrize(
        "spec",
        [UpsilonSpec("finite", n, e) for n in range(1, 9) for e in (False, True)]
        + [UpsilonSpec(k, n) for k in ("ray", "line") for n in range(1, 12)],
        ids=lambda s: f"{s.kind}-{s.size}" + "-exception" * s.middle_exception,
    )
    def test_matches_reference_loop(self, spec):
        g = upsilon_graph(spec)
        vertices, edges = reference_upsilon(spec)
        assert g.vertices == vertices and g.edges == edges
        assert all(type(x) is int for e in g.edges for x in e[:2])

    def test_models_load_no_masked_arrays(self):
        # np.setdiff1d imports numpy.ma, about 0.9 MiB that a run then holds
        code = (
            "import sys, treespec as ts\n"
            "for kind in ('finite', 'ray', 'line'):\n"
            "    ts.upsilon_graph(ts.UpsilonSpec(kind, 3))\n"
            "sys.exit('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(schreier.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), timeout=120
        )
        assert proc.returncode == 0

    @pytest.mark.parametrize("kind", ["ray", "line"])
    def test_middle_exception_only_on_finite_levels(self, kind):
        # a ray or line with the exception was accepted and built plain
        with pytest.raises(ValueError, match=f"a {kind} has no middle exception"):
            UpsilonSpec(kind, 4, middle_exception=True)

    @pytest.mark.parametrize(
        "g, u, witness",
        [
            (("finite", 2), ("finite", 3), "vertex counts 4 != 8"),
            # loops (3, 1, 1, 1) against (3, 1, 1, 3), multiplicities (1, 2, 1) both
            (("ray", 3), ("finite", 2), "loop count mismatch at path position 3: 1 != 3"),
        ],
    )
    def test_mismatch_witness(self, g, u, witness):
        got = check_isomorphic(upsilon_graph(UpsilonSpec(*g)), upsilon_graph(UpsilonSpec(*u)))
        assert not got and got.witness == witness

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


def reference_upsilon(spec):
    """Vertices and edges of a model graph by the per-position loop that
    ``upsilon_graph`` replaced, kept as the reference route."""
    n = int(spec.size)
    lo, hi, ends = {
        "finite": (0, (1 << n) - 1, (0, (1 << n) - 1)),
        "ray": (0, n, (0,)),
        "line": (-n, n, ()),
    }[spec.kind]
    edges = []
    for v in ends:
        edges += [Edge(v, v)] * 3
    edges += [Edge(v, v) for v in range(lo, hi + 1) if v not in ends]
    for i in range(lo, hi):
        single = i % 2 == 0 or spec.middle_exception and i == (1 << (n - 1)) - 1
        edges += [Edge(i, i + 1)] * (1 if single else 2)
    return list(range(lo, hi + 1)), edges


def reference_path_form(g):
    """The set-and-frozenset path form that ``path_canonical_form`` replaced,
    kept as the second route."""
    loops = {v: 0 for v in g.vertices}
    simple = {v: set() for v in g.vertices}
    mult = {}
    for e in g.edges:
        if e.is_loop:
            loops[e.u] += 1
        else:
            simple[e.u].add(e.v)
            simple[e.v].add(e.u)
            key = frozenset((e.u, e.v))
            mult[key] = mult.get(key, 0) + 1
    if g.n == 1:
        v = g.vertices[0]
        return PathForm((v,), (loops[v],), ())
    ends = [v for v in g.vertices if len(simple[v]) == 1]
    if len(ends) != 2 or any(len(simple[v]) > 2 for v in g.vertices):
        raise NotAPathError("non-loop edges do not form a simple path")
    start = min(ends, key=lambda v: str(v))
    order = [start]
    prev = None
    while len(order) < g.n:
        nxt = [u for u in simple[order[-1]] if u != prev]
        if len(nxt) != 1:
            raise NotAPathError("non-loop edges do not form a simple path")
        prev = order[-1]
        order.append(nxt[0])
    if len(set(order)) != g.n:
        raise NotAPathError("non-loop edges are disconnected or cyclic")
    return PathForm(
        tuple(order),
        tuple(loops[v] for v in order),
        tuple(mult[frozenset((order[i], order[i + 1]))] for i in range(g.n - 1)),
    )


def outcome(fn, *args):
    """The result of fn, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


# vertex ids of both kinds; 5 and "5" are distinct ids with equal str keys
LABELS = list(range(-40, 41)) + [str(i) for i in range(-40, 41)]


class TestPathForm:
    @given(w=OMEGAS, n=st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_level_form_matches_graph_form_and_reference(self, w, n):
        g = schreier_graph(w, n)
        expect = outcome(reference_path_form, g)
        assert outcome(path_canonical_form, g) == expect
        assert outcome(level_path_form, w, n) == expect

    @given(
        spec=st.one_of(
            st.builds(UpsilonSpec, st.just("finite"), st.integers(1, 5)),
            st.builds(UpsilonSpec, st.sampled_from(["ray", "line"]), st.integers(1, 12)),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_shuffled_relabelled_models_match_reference(self, spec, seed):
        # new labels, a vertex order and an edge order of their own, endpoints
        # swapped at random: the start is the end whose label sorts first as
        # a string
        u = upsilon_graph(spec)
        rng = random.Random(seed)
        relabel = dict(zip(u.vertices, rng.sample(LABELS, u.n)))
        vertices = [relabel[v] for v in u.vertices]
        rng.shuffle(vertices)
        edges = [
            Edge(relabel[e.u], relabel[e.v])
            if rng.random() < 0.5
            else Edge(relabel[e.v], relabel[e.u])
            for e in u.edges
        ]
        rng.shuffle(edges)
        g = Multigraph(vertices, edges)
        assert path_canonical_form(g) == reference_path_form(g)

    def test_string_order_picks_the_start(self):
        # ends 9 and 10: as strings "10" < "9"
        g = Multigraph([9, 5, 10], [(9, 5), (5, 10), (5, 10), (9, 9)])
        form = path_canonical_form(g)
        assert form == PathForm((10, 5, 9), (0, 0, 1), (2, 1))
        assert form == reference_path_form(g)
        # ends 5 and "5" tie as strings: the one listed first starts
        for vertices in (["5", 0, 5], [5, 0, "5"]):
            g = Multigraph(vertices, [("5", 0), (0, 5)])
            form = path_canonical_form(g)
            assert form.order[0] is vertices[0]
            assert form == reference_path_form(g)

    @pytest.mark.parametrize(
        "vertices, edges",
        [
            ([0, 1, 2], [(0, 1), (1, 2), (2, 0)]),  # cycle
            ([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)]),  # branch
            ([0, 1, 2, 3], [(0, 1), (2, 3)]),  # two paths
            ([0, 1, 2, 3, 4, 5], [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),  # path and cycle
            ([0, 1, 2], [(0, 1), (2, 2)]),  # path and a vertex with a loop
            ([0, 1], []),  # no edges
        ],
    )
    def test_not_a_path(self, vertices, edges):
        g = Multigraph(vertices, edges)
        with pytest.raises(NotAPathError):
            path_canonical_form(g)
        with pytest.raises(NotAPathError):
            reference_path_form(g)

    def test_single_vertex(self):
        g = Multigraph([0], [(0, 0), (0, 0)])
        assert path_canonical_form(g) == PathForm((0,), (2,), ())
        assert path_canonical_form(g) == reference_path_form(g)

    def test_level_form_caps(self):
        w = OmegaWord.parse(":012")
        with pytest.raises(ResourceLimitError):
            level_path_form(w, 5, RunConfig(max_vertices=16))
        with pytest.raises(ValueError):
            level_path_form(w, 0)


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
        for v in ball.covering.interior:
            assert ball.graph.degree(v) == 4

    def test_identity_maps_to_all_ones(self):
        w = OmegaWord.parse(":012")
        ball = cayley_ball(w, 3, 3)
        assert ball.covering.phi(0) == "111"

    def test_trivial_generator_keeps_its_loops(self):
        # on ":0" the letter d is never active, so d fixes every element and
        # adds a loop at each; without them the stars are short of a d-edge
        ball = cayley_ball(OmegaWord.parse(":0"), 4, 2)
        d_loops = [e for e in ball.graph.edges if e.label == "d"]
        assert ball.graph.n == 9 and len(d_loops) == 9
        assert all(e.is_loop for e in d_loops)
        rep = verify_covering(ball.covering)
        assert rep, rep.witness

    def test_level_deeper_than_comparison_depth(self):
        # radius 3 needs comparison depth 5; the level-6 images come from the
        # BFS parents, so the ball is enumerated no deeper than that, and its
        # maps equal those of a reference enumerated 6 deep
        w = OmegaWord.parse(":012")
        ball = cayley_ball(w, 3, 6)
        assert ball.enumeration.depth == 5 and ball.graph.n == 23
        assert ball.covering.phi(0) == "111111"
        vertex_map, edges, edge_map = reference_cayley_maps(w, ball)
        assert ball.covering.vertex_map == vertex_map
        assert [(e.u, e.v, e.label) for e in ball.graph.edges] == edges
        assert ball.covering.edge_map == edge_map
        # the local checks pass; 23 elements cannot reach all 64 vertices
        with pytest.raises(WindowTooSmallError):
            verify_covering(ball.covering)

    def test_level_cap_checked_before_enumeration(self, monkeypatch):
        # at the default cap, level 16 is refused before a ball is enumerated
        def refuse(*args, **kwargs):
            raise AssertionError("worked on the ball of a refused level")

        monkeypatch.setattr(schreier, "enumerate_ball", refuse)
        with pytest.raises(ResourceLimitError, match=r"2\^16 vertices exceed cap 4096"):
            cayley_ball(OmegaWord.parse(":012"), 11, 16)
        with pytest.raises(ResourceLimitError):
            cayley_ball(OmegaWord.parse(":012"), 2, 3, RunConfig(max_vertices=4))


def edge_lookup(g):
    """(vertex, label) -> edge index, for graphs with one edge per label: the
    dict both coverings were built from before the edge table, kept as the
    reference route."""
    table = {}
    for i, e in enumerate(g.edges):
        table[(e.u, e.label)] = i
        table[(e.v, e.label)] = i
    return table


def reference_cayley_maps(w, ball):
    """Vertex map, edges and edge map of a Cayley ball, rebuilt from the
    reference enumeration's leaf permutations through bit-string labels and
    the label lookup; the reference goes at least ``level`` deep, so that its
    permutations hold the level images."""
    enum, level = ball.enumeration, ball.level
    depth = max(enum.depth, level)
    perms = reference_enumeration(w, ball.radius, depth)[0]
    lookup = edge_lookup(schreier_graph(w, level))

    def phi(i):
        top = int(perms[i][(1 << depth) - 1])
        return format(top >> (depth - level), f"0{level}b")

    edges, edge_map = [], {}
    for i, row in enumerate(enum.neighbors):
        for g, j in zip("abcd", row):
            if j != -1 and j >= i:  # j == i: a loop where g fixes element i
                edge_map[len(edges)] = lookup[(phi(i), g)]
                edges.append((i, j, g))
    return {i: phi(i) for i in range(len(perms))}, edges, edge_map


class TestEdgeTable:
    @given(w=st.one_of(OMEGAS, ONE_SYMBOL), n=st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_table_matches_label_lookup(self, w, n):
        g = schreier_graph(w, n)
        u, v, gen, ids = _level_edges(w, n)
        assert [(e.u, e.v, e.label) for e in g.edges] == [
            (g.vertices[i], g.vertices[j], "abcd"[k])
            for i, j, k in zip(u.tolist(), v.tolist(), gen.tolist())
        ]
        lookup = edge_lookup(g)
        assert {
            (x, "abcd"[k]): ids[k, i] for k in range(4) for i, x in enumerate(g.vertices)
        } == lookup

    @given(w=st.one_of(OMEGAS, ONE_SYMBOL), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_projection_matches_reference(self, w, data):
        m = data.draw(st.integers(2, 9))
        n = data.draw(st.integers(1, m - 1))
        cov = level_projection_covering(w, m, n)
        lookup = edge_lookup(schreier_graph(w, n))
        assert cov.edge_map == {
            i: lookup[(e.u[:n], e.label)] for i, e in enumerate(cov.source.edges)
        }
        assert all(type(t) is int for t in cov.edge_map.values())
        assert cov.vertex_map == {x: x[:n] for x in cov.source.vertices}

    @given(w=st.one_of(OMEGAS, ONE_SYMBOL), radius=st.integers(1, 5), level=st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_cayley_ball_matches_reference(self, w, radius, level):
        ball = cayley_ball(w, radius, level)
        vertex_map, edges, edge_map = reference_cayley_maps(w, ball)
        assert ball.covering.vertex_map == vertex_map
        assert [(e.u, e.v, e.label) for e in ball.graph.edges] == edges
        assert ball.covering.edge_map == edge_map
        assert all(type(t) is int for t in ball.covering.edge_map.values())


class TestOneRuleEach:
    """Each level object is built by one rule: a covering reads its target
    level's edge table once, and each level is checked once per call."""

    W = OmegaWord.parse(":012")

    @pytest.fixture
    def calls(self, monkeypatch):
        """The levels that ``_level_edges`` and ``_check_level`` were called on."""
        seen = {"edges": [], "checked": []}

        def record(name, key, level_arg):
            original = getattr(schreier, name)

            def wrapper(*args):
                seen[key].append(args[level_arg])
                return original(*args)

            monkeypatch.setattr(schreier, name, wrapper)

        record("_level_edges", "edges", 1)  # (w, n)
        record("_check_level", "checked", 0)  # (n, config)
        return seen

    def test_projection_reads_each_level_once(self, calls):
        level_projection_covering(self.W, 5, 2)
        assert calls == {"edges": [5, 2], "checked": [5, 2]}

    def test_cayley_ball_reads_its_level_once(self, calls):
        cayley_ball(self.W, 3, 4)
        assert calls == {"edges": [4], "checked": [4]}

    @pytest.mark.parametrize("build", [schreier_graph, level_path_form])
    def test_level_builders_read_their_level_once(self, calls, build):
        build(self.W, 3)
        assert calls == {"edges": [3], "checked": [3]}

    def test_one_labelled_edge_constructor(self):
        # level graphs, projection sources, Cayley balls, covering targets and
        # model graphs are all handed over as columns: no Edge is made here
        tree = ast.parse(Path(schreier.__file__).read_text())
        names = [node.id for node in ast.walk(tree) if isinstance(node, ast.Name)]
        assert "_new_edge" not in names and "Edge" not in names


def _corrupt(rows: dict) -> np.ndarray:
    """The level-3 table of :012 with the given entries of its rows replaced.

    Its rows: a = i ^ 4; b swaps 0-2, 1-3, 4-5; c swaps 0-2, 1-3; d swaps
    4-5; so T sends 0-2, 1-3, 4-5 and fixes 6 and 7, and the graph is the
    path 6 a 2 T 0 a 4 T 5 a 1 T 3 a 7."""
    table = _generator_table(OmegaWord.parse(":012"), 3).copy()
    for letter, entries in rows.items():
        row = table["abcd".index(letter)]
        for i, x in entries.items():
            row[i] = x
    return table


class TestLevelCertificate:
    """Four permutation checks on a level's generator table certify the
    graph and its spectrum; each corrupted table fails the check it breaks."""

    def test_every_prefix_certifies_at_level_8(self):
        # level 8 reads omega_1 .. omega_7 only, so these are all the words
        words = [OmegaWord(p, (0,)) for p in itertools.product(range(3), repeat=7)]
        assert len(words) == 2187
        failed = [(w, c.witness) for w in words if not (c := level_certificate(w, 8))]
        assert failed == []

    @given(w=OMEGAS, n=st.integers(1, 9))
    def test_certified_levels_are_the_model(self, w, n):
        certificate = level_certificate(w, n, RunConfig(max_vertices=1 << 9))
        assert certificate == LevelCertificate(True) and certificate
        if n <= 6:
            assert check_isomorphic(schreier_graph(w, n), upsilon_graph(UpsilonSpec("finite", n)))

    def test_real_table_passes(self):
        assert _certify_table(_corrupt({})) == LevelCertificate(True)

    @pytest.mark.parametrize(
        "rows, witness",
        [
            ({"a": {0: 0, 4: 4}}, "check 1: a fixes vertex 000"),
            # two 4-cycles: no fixed point, but not an involution
            ({"a": {0: 1, 1: 2, 2: 3, 3: 0, 4: 5, 5: 6, 6: 7, 7: 4}}, "check 1: a a moves vertex 000"),
            ({"c": {0: 0, 2: 2}}, "check 2: vertex 000 is moved by 1 of b, c and d"),
            ({"d": {0: 2, 2: 0}}, "check 2: vertex 000 is moved by 3 of b, c and d"),
            ({"c": {0: 1, 1: 0, 2: 3, 3: 2}}, "check 2: the two letters that move vertex 000 send it apart"),
            ({"b": {4: 4, 5: 5}, "d": {4: 4, 5: 5}}, "check 3: T fixes 4 vertices, not 2; the third is 110"),
            # a-edges 0-4, 2-5 and T-edges 0-2, 4-5 close a cycle: A T splits
            ({"a": {0: 4, 4: 0, 2: 5, 5: 2, 6: 1, 1: 6, 3: 7, 7: 3}},
             "check 4: the A T orbit of vertex 000 is shorter than 2^n"),
            # a-edges 6-7 and 2-3 cut the path into an edge and a cycle
            ({"a": {6: 7, 7: 6, 2: 3, 3: 2}}, "check 4: (A T)^(2^n) moves vertex 000"),
        ],
        ids=["a-fixed-point", "a-not-involution", "one-letter", "three-letters",
             "letters-disagree", "four-T-fixed", "AT-short-orbit", "AT-not-one-cycle"],
    )
    def test_corrupted_table_names_its_check(self, rows, witness):
        certificate = _certify_table(_corrupt(rows))
        assert not certificate
        assert certificate.witness == witness

    def test_T_with_no_fixed_point(self):
        # 6-7 moved by b and c: T is an involution with no fixed vertex
        certificate = _certify_table(_corrupt({"b": {6: 7, 7: 6}, "c": {6: 7, 7: 6}}))
        assert certificate.witness == "check 3: T fixes no vertex, not 2; it moves vertex 000"

    def test_T_not_an_involution(self):
        # b and c move 0 to 2, and 2 to 1: T T moves 0
        rows = {"b": {2: 1, 1: 3, 3: 0}, "c": {2: 1, 1: 3, 3: 0}}
        certificate = _certify_table(_corrupt(rows))
        assert certificate.witness == "check 3: T T moves vertex 000"

    def test_level_is_checked_first(self):
        w = OmegaWord.parse(":012")
        with pytest.raises(ResourceLimitError):
            level_certificate(w, 13)
        with pytest.raises(ValueError, match="level 2.5 is not an int"):
            level_certificate(w, 2.5)
        with pytest.raises(ValueError, match="n must be >= 1"):
            level_certificate(w, 0)

    def test_failed_certificate_stops_the_sweep(self, monkeypatch):
        bad = _corrupt({"c": {0: 0, 2: 2}})
        monkeypatch.setattr(schreier, "_generator_table", lambda w, n: bad)
        with pytest.raises(NotAPathError, match="check 2: vertex 000 is moved by 1"):
            spectrum_sweep(OmegaWord.parse(":012"), 3)
