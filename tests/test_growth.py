import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from treespec import (
    OmegaWord,
    ResourceLimitError,
    ball_sizes,
    cayley_ball,
    enumerate_ball,
    generator_action,
)
from treespec import growth
from treespec.growth import _enumerate_at_depth, comparison_depth

OMEGAS = st.builds(
    OmegaWord,
    st.lists(st.integers(0, 2), max_size=1).map(tuple),
    st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
)


def oracle_sizes(w, radius, depth):
    # plain BFS over all words, elements keyed by leaf permutation at depth
    gens = {g: generator_action(g, w, depth) for g in "abcd"}
    ident = generator_action("a", w, depth).compose(generator_action("a", w, depth))
    seen = {ident.leaf_perm: 0}
    frontier = [ident]
    sizes = [1]
    for r in range(1, radius + 1):
        nxt = []
        for el in frontier:
            for g, act in gens.items():
                cand = act.compose(el)
                if cand.leaf_perm not in seen:
                    seen[cand.leaf_perm] = r
                    nxt.append(cand)
        frontier = nxt
        sizes.append(len(seen))
    return sizes


def reference_enumeration(w, radius, depth):
    """Reference: the one-candidate-at-a-time BFS that the shell-by-shell
    numpy enumeration replaced.  Returns (perms, radius_of, neighbors, sizes)
    with ``neighbors`` a list of lists."""
    dtype = np.min_scalar_type((1 << depth) - 1)
    gen_perms = [generator_action(g, w, depth).perm.astype(dtype) for g in "abcd"]
    identity = np.arange(1 << depth, dtype=dtype)
    index = {identity.tobytes(): 0}
    perms = [identity]
    radius_of = [0]
    neighbors = [[]]
    sizes = [1]
    frontier = [0]
    for r in range(1, radius + 1):
        new_frontier = []
        for i in frontier:
            for gp in gen_perms:
                img = gp[perms[i]]
                key = img.tobytes()
                j = index.get(key)
                if j is None:
                    j = len(perms)
                    index[key] = j
                    perms.append(img)
                    radius_of.append(r)
                    neighbors.append([])
                    new_frontier.append(j)
                neighbors[i].append(j)
        frontier = new_frontier
        sizes.append(len(perms))
    for i in frontier:
        for gp in gen_perms:
            neighbors[i].append(index.get(gp[perms[i]].tobytes(), -1))
    return perms, radius_of, neighbors, sizes


def word_lengths(sizes):
    """Word length of each element: r for the ids from sizes[r - 1] up to sizes[r]."""
    return np.repeat(np.arange(len(sizes)), np.diff(sizes, prepend=0)).tolist()


def assert_same_ball(got, want):
    """Bit for bit: the neighbour table, the census and the depth."""
    assert got.neighbors.dtype == want.neighbors.dtype == np.int32
    assert np.array_equal(got.neighbors, want.neighbors)
    assert got.sizes == want.sizes and got.depth == want.depth


def assert_matches_reference(enum, w, radius, depth):
    perms, radius_of, neighbors, sizes = reference_enumeration(w, radius, depth)
    assert len(enum.perms) == len(perms)
    for got, ref in zip(enum.perms, perms):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert word_lengths(enum.sizes) == radius_of
    assert enum.neighbors.dtype == np.int32 and enum.neighbors.shape == (len(perms), 4)
    assert enum.neighbors.tolist() == neighbors
    assert enum.sizes == sizes


class TestBallSizes:
    def test_classic_sequence_small_balls(self):
        rep = ball_sizes(OmegaWord.parse(":012"), 5)
        assert rep.sizes == (1, 5, 11, 23, 40, 68)

    def test_sphere_sizes_match_published_values(self):
        rep = ball_sizes(OmegaWord.parse(":012"), 10)
        spheres = [b - a for a, b in zip(rep.sizes, rep.sizes[1:])]
        assert spheres == [4, 6, 12, 17, 28, 40, 68, 95, 156, 216]

    @settings(max_examples=15, deadline=None)
    @given(w=OMEGAS, radius=st.integers(0, 5))
    def test_matches_bfs_oracle(self, w, radius):
        rep = ball_sizes(w, radius)
        # depth 8 leaf permutations separate all elements of word length <= 5
        assert list(rep.sizes) == oracle_sizes(w, radius, 8)

    @given(w=OMEGAS)
    def test_sizes_are_nondecreasing(self, w):
        rep = ball_sizes(w, 6)
        assert all(a <= b for a, b in zip(rep.sizes, rep.sizes[1:]))

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            ball_sizes(OmegaWord.parse(":012"), -1)


class TestComparisonDepth:
    @pytest.mark.parametrize("length, depth", [(3, 4), (13, 6), (23, 7), (37, 8)])
    def test_classic_sequence(self, length, depth):
        assert comparison_depth(OmegaWord.parse(":012"), length) == depth

    @pytest.mark.parametrize(
        "omega, size", [(":012", 15303), (":01", 15478), ("0:01", 13063)]
    )
    def test_radius_18_census(self, omega, size):
        w = OmegaWord.parse(omega)
        enum = enumerate_ball(w, 18)
        assert enum.sizes[-1] == size and enum.stable
        # the same table as one enumeration at the proven depth
        assert enum.depth == 8
        assert_same_ball(enum, _enumerate_at_depth(w, 18, 8))

    @settings(max_examples=40, deadline=None)
    @given(
        w=st.builds(
            OmegaWord,
            st.lists(st.integers(0, 2), max_size=3).map(tuple),
            st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
        ),
        radius=st.integers(0, 10),
    )
    def test_deeper_levels_separate_nothing_more(self, w, radius):
        enum = enumerate_ball(w, radius)
        deeper = _enumerate_at_depth(w, radius, enum.depth + 2)
        assert deeper.sizes == enum.sizes
        assert np.array_equal(deeper.neighbors, enum.neighbors)


class TestEnumeration:
    def test_neighbor_table_closed_under_generators(self):
        w = OmegaWord.parse(":01")
        enum = enumerate_ball(w, 4)
        inside = enum.sizes[-1]
        radius_of = word_lengths(enum.sizes)
        for i in range(inside):
            for j in range(4):
                n = enum.neighbors[i][j]
                if radius_of[i] < 4:
                    assert n >= 0  # every product stays enumerated
                if n >= 0:
                    assert abs(radius_of[n] - radius_of[i]) <= 1

    def test_generators_pairwise_distinct(self):
        w = OmegaWord.parse(":012")
        enum = enumerate_ball(w, 2)
        perms = {tuple(p) for p in enum.perms[:5]}
        assert len(perms) == 5  # e, a, b, c, d all distinct elements

    def test_identity_is_index_zero(self):
        enum = enumerate_ball(OmegaWord.parse(":012"), 3)
        assert word_lengths(enum.sizes)[:2] == [0, 1]
        assert list(enum.perms[0]) == list(range(1 << enum.depth))

    def test_perms_are_read_only(self):
        enum = enumerate_ball(OmegaWord.parse(":012"), 3)
        assert enum.perms.shape == (enum.sizes[-1], 1 << enum.depth)
        with pytest.raises(ValueError, match="read-only"):
            enum.perms[0, 0] = 1
        for i in (0, 4, len(enum.perms) - 1):
            with pytest.raises(ValueError, match="read-only"):
                enum.perms[i][0] = 1

    def test_perms_built_once_on_first_read(self):
        enum = enumerate_ball(OmegaWord.parse(":012"), 3)
        assert "perms" not in vars(enum)
        assert enum.perms is enum.perms

    @pytest.mark.parametrize("radius", [2.5, 3.0, "3", None])
    def test_radius_not_an_int_named(self, radius):
        # 2.5 raised "'float' object cannot be interpreted as an integer" and
        # "3" raised "'<' not supported between instances of 'str' and 'int'"
        w = OmegaWord.parse(":012")
        for build in (enumerate_ball, ball_sizes):
            with pytest.raises(ValueError, match=re.escape(f"radius {radius!r} is not an int")):
                build(w, radius)
        with pytest.raises(ValueError, match=re.escape(f"radius {radius!r} is not an int")):
            cayley_ball(w, radius, 2)

    def test_numpy_radius_accepted(self):
        w = OmegaWord.parse(":012")
        assert enumerate_ball(w, np.int64(3)).sizes == enumerate_ball(w, 3).sizes
        assert ball_sizes(w, np.int32(3)).sizes == (1, 5, 11, 23)
        assert cayley_ball(w, np.int64(3), 2).graph.n == 23

    @pytest.mark.parametrize("radius", [2**40, 10**30])
    def test_huge_radius_refused_per_shell(self, radius, monkeypatch):
        # 2^40 raised MemoryError ("Unable to allocate 128. TiB") while the
        # generator table was built at depth 44, before the cap was reached
        monkeypatch.setattr(growth, "MAX_BALL_ELEMENTS", 1000)
        w = OmegaWord.parse(":012")
        with pytest.raises(ResourceLimitError, match="ball exceeds 1000 elements"):
            ball_sizes(w, radius)

    @pytest.mark.parametrize("radius, raises", [(5, False), (6, True)])
    def test_element_cap(self, radius, raises, monkeypatch):
        # the radius-5 ball of :012 has 68 elements and the radius-6 ball 108
        monkeypatch.setattr(growth, "MAX_BALL_ELEMENTS", 100)
        w = OmegaWord.parse(":012")
        if raises:
            with pytest.raises(ResourceLimitError, match="ball exceeds 100 elements"):
                enumerate_ball(w, radius)
        else:
            assert enumerate_ball(w, radius).sizes[-1] == 68


class TestShellEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(
        w=st.builds(
            OmegaWord,
            st.lists(st.integers(0, 2), max_size=3).map(tuple),
            st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple),
        ),
        radius=st.integers(0, 10),
        extra=st.integers(0, 2),
    )
    @example(w=OmegaWord.parse(":0"), radius=10, extra=0)
    @example(w=OmegaWord.parse("1:2"), radius=10, extra=2)
    def test_matches_reference_loop(self, w, radius, extra):
        depth = comparison_depth(w, 2 * radius + 1) + extra
        assert_matches_reference(_enumerate_at_depth(w, radius, depth), w, radius, depth)

    @pytest.mark.parametrize("omega", [":012", ":0"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_shallow_truncation_matches_reference_loop(self, omega, depth):
        # below the comparison depth the truncated group is finite, so the
        # shells run out before the radius does
        w = OmegaWord.parse(omega)
        enum = _enumerate_at_depth(w, 16, depth)
        assert enum.sizes[-1] == enum.sizes[-2]
        assert_matches_reference(enum, w, 16, depth)

    @pytest.mark.parametrize("radius, depth, step", [(14, 7, 1024), (7, 14, 16)])
    def test_spans_several_chunks(self, radius, depth, step):
        # shells of more rows than one numpy step takes: 1024 rows, and at
        # most 2^18 leaves
        w = OmegaWord.parse(":012")
        enum = _enumerate_at_depth(w, radius, depth)
        assert max(b - a for a, b in zip(enum.sizes, enum.sizes[1:])) > step
        assert_matches_reference(enum, w, radius, depth)


WREATH_OMEGAS = st.builds(
    OmegaWord,
    st.lists(st.integers(0, 2), max_size=3).map(tuple),
    st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple),
)


class TestWreathRecursion:
    """``enumerate_ball`` builds a ball from the ball of the shifted word at
    about half the radius; ``_enumerate_at_depth`` at the comparison depth is
    the second route to the same ball."""

    @settings(max_examples=60, deadline=None)
    @given(w=WREATH_OMEGAS, radius=st.integers(0, 12))
    @example(w=OmegaWord.parse(":0"), radius=12)
    @example(w=OmegaWord.parse("1:2"), radius=12)
    @example(w=OmegaWord.parse(":012"), radius=0)
    @example(w=OmegaWord.parse(":012"), radius=1)
    def test_matches_depth_route(self, w, radius):
        enum = enumerate_ball(w, radius)
        depth = comparison_depth(w, 2 * radius + 1)
        want = _enumerate_at_depth(w, radius, depth)
        assert_same_ball(enum, want)
        assert enum.perms.dtype == want.perms.dtype
        assert np.array_equal(enum.perms, want.perms)

    @pytest.mark.parametrize("omega", [":012", ":01", "0:01"])
    @pytest.mark.parametrize("radius", [18, 22])
    def test_matches_depth_route_at_large_radii(self, omega, radius):
        w = OmegaWord.parse(omega)
        want = _enumerate_at_depth(w, radius, comparison_depth(w, 2 * radius + 1))
        assert_same_ball(enumerate_ball(w, radius), want)

    def test_base_case_is_the_depth_route(self, monkeypatch):
        calls = []

        def recording(w, radius, depth):
            calls.append((str(w), radius, depth))
            return _enumerate_at_depth(w, radius, depth)

        monkeypatch.setattr(growth, "_enumerate_at_depth", recording)
        enumerate_ball(OmegaWord.parse(":012"), 18)
        # radius 18 over :012 reads radius 10 over :120, 6 over :201, 4 over :012
        assert calls == [(":012", 4, comparison_depth(OmegaWord.parse(":012"), 9))]

    def test_section_outside_smaller_ball_raises(self, monkeypatch):
        # hand the recursion smaller balls one radius short: some product of
        # the outer shell then has a section that its smaller ball lacks
        wreath = growth._wreath_ball
        monkeypatch.setattr(growth, "_wreath_ball", lambda w, radius: wreath(w, radius - 1))
        with pytest.raises(RuntimeError, match="is not in its smaller ball"):
            wreath(OmegaWord.parse(":012"), 12)
