import pytest
from hypothesis import given, settings, strategies as st

from treespec import OmegaWord, ball_sizes, enumerate_ball, generator_action
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
    def test_radius_18_census(self, omega, size, monkeypatch):
        depths = []

        def recording(w, radius, depth):
            depths.append(depth)
            return _enumerate_at_depth(w, radius, depth)

        monkeypatch.setattr(growth, "_enumerate_at_depth", recording)
        enum = enumerate_ball(OmegaWord.parse(omega), 18)
        assert enum.sizes[-1] == size and enum.stable
        assert depths == [8]  # one enumeration, at the proven depth

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
        assert deeper.neighbors == enum.neighbors


class TestEnumeration:
    def test_neighbor_table_closed_under_generators(self):
        w = OmegaWord.parse(":01")
        enum = enumerate_ball(w, 4)
        inside = enum.sizes[-1]
        for i in range(inside):
            for j in range(4):
                n = enum.neighbors[i][j]
                if enum.radius_of[i] < 4:
                    assert n >= 0  # every product stays enumerated
                if n >= 0:
                    assert abs(enum.radius_of[n] - enum.radius_of[i]) <= 1

    def test_generators_pairwise_distinct(self):
        w = OmegaWord.parse(":012")
        enum = enumerate_ball(w, 2)
        perms = {tuple(p) for p in enum.perms[:5]}
        assert len(perms) == 5  # e, a, b, c, d all distinct elements

    def test_identity_is_index_zero(self):
        enum = enumerate_ball(OmegaWord.parse(":012"), 3)
        assert enum.radius_of[0] == 0
        assert list(enum.perms[0]) == list(range(1 << enum.depth))
