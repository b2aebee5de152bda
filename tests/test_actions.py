import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treespec import OmegaWord, TreeAutomorphism, generator_action, verify_trivial, word_action

WORDS = st.text(alphabet="abcd", min_size=0, max_size=8)
OMEGAS = st.builds(
    OmegaWord,
    st.lists(st.integers(0, 2), max_size=2).map(tuple),
    st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
)
DEPTHS = st.integers(min_value=1, max_value=6)


def portraits(depth):
    """Arbitrary automorphisms of the given depth, not only group elements:
    a swap bit at every vertex above the leaves, vertices in level order."""
    size = (1 << depth) - 1

    def build(swaps):
        perm = []
        for leaf in range(1 << depth):
            image, vertex = 0, 0
            for k in range(depth):
                bit = (leaf >> (depth - 1 - k)) & 1
                image = (image << 1) | (bit ^ swaps[vertex])
                vertex = 2 * vertex + 1 + bit
            perm.append(image)
        return TreeAutomorphism(depth, tuple(perm))

    return st.lists(st.integers(0, 1), min_size=size, max_size=size).map(build)


AUTOMORPHISMS = DEPTHS.flatmap(portraits)
TRIPLES = DEPTHS.flatmap(lambda d: st.tuples(portraits(d), portraits(d), portraits(d)))


# independent oracle: act on bit strings one letter at a time, recursively.
# a flips the top bit; b/c/d walk down the all-ones ray flipping the next
# bit wherever omega makes the letter active.
def act_letter(g, w, bits):
    if g == "a":
        return [1 - bits[0]] + bits[1:]
    table = {"b": (0, 1), "c": (0, 2), "d": (1, 2)}[g]
    out = list(bits)
    for n in range(1, len(bits)):
        if all(out[i] == 1 for i in range(n - 1)) and out[n - 1] == 0:
            if w.symbol(n) in table:
                out[n] = 1 - out[n]
            break
    return out


def word_action_by_compose(word, w, depth):
    """Reference: the letter-by-letter compose fold that word_action replaced."""
    result = TreeAutomorphism.identity(depth)
    for letter in word:
        result = result.compose(generator_action(letter, w, depth))
    return result


def act_word(word, w, bits):
    for g in reversed(word):
        bits = act_letter(g, w, bits)
    return bits


def to_bits(i, depth):
    return [(i >> (depth - 1 - j)) & 1 for j in range(depth)]


def from_bits(bits):
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


class TestGeneratorAction:
    def test_depth3_example(self):
        w = OmegaWord.parse(":012")
        b = generator_action("b", w, 3)
        assert b.leaf_perm == (2, 3, 0, 1, 5, 4, 6, 7)

    def test_a_swaps_halves(self):
        w = OmegaWord.parse(":0")
        a = generator_action("a", w, 4)
        for i in range(16):
            assert a.apply(i) == i ^ 8

    @given(w=OMEGAS, depth=DEPTHS, g=st.sampled_from("abcd"))
    def test_matches_recursive_oracle(self, w, depth, g):
        act = generator_action(g, w, depth)
        for i in range(1 << depth):
            expect = from_bits(act_letter(g, w, to_bits(i, depth)))
            assert act.apply(i) == expect

    @given(w=OMEGAS, depth=DEPTHS, g=st.sampled_from("abcd"))
    def test_generators_are_involutions(self, w, depth, g):
        act = generator_action(g, w, depth)
        assert act.compose(act).is_identity()

    @given(w=OMEGAS, depth=DEPTHS)
    def test_bcd_relation(self, w, depth):
        # any two of b, c, d multiply to the third
        assert word_action("bcd", w, depth).is_identity()
        assert word_action("bc", w, depth) == word_action("d", w, depth)


class TestWordAction:
    @given(w=OMEGAS, depth=DEPTHS, word=WORDS)
    def test_matches_recursive_oracle(self, w, depth, word):
        act = word_action(word, w, depth)
        for i in range(1 << depth):
            assert act.apply(i) == from_bits(act_word(word, w, to_bits(i, depth)))

    @given(w=OMEGAS, depth=st.integers(1, 8), u=WORDS, v=WORDS)
    def test_composition_is_concatenation(self, w, depth, u, v):
        uv = word_action(u + v, w, depth)
        assert uv == word_action(u, w, depth).compose(word_action(v, w, depth))
        assert uv == word_action_by_compose(u + v, w, depth)

    @given(w=OMEGAS, depth=st.integers(2, 6), word=WORDS)
    def test_truncation_consistency(self, w, depth, word):
        # the action at depth-1 is the level-(depth-1) part of the action at depth
        deep = word_action(word, w, depth)
        shallow = word_action(word, w, depth - 1)
        assert deep.level_perm(depth - 1) == shallow.leaf_perm

    @given(w=OMEGAS, depth=DEPTHS, word=WORDS)
    def test_inverse(self, w, depth, word):
        act = word_action(word, w, depth)
        assert act.compose(act.inverse()).is_identity()


class TestComposeInverse:
    @given(a=AUTOMORPHISMS)
    def test_inverse_is_two_sided(self, a):
        assert a.compose(a.inverse()).is_identity()
        assert a.inverse().compose(a).is_identity()

    @given(a=AUTOMORPHISMS)
    def test_inverse_is_an_involution(self, a):
        assert a.inverse().inverse() == a

    @given(t=TRIPLES)
    def test_compose_acts_right_to_left(self, t):
        a, b, _ = t
        ab = a.compose(b)
        assert all(ab.apply(i) == a.apply(b.apply(i)) for i in range(1 << a.depth))

    @given(t=TRIPLES)
    def test_compose_is_associative(self, t):
        a, b, c = t
        assert a.compose(b).compose(c) == a.compose(b.compose(c))

    @given(w=OMEGAS, depth=DEPTHS, word=WORDS)
    def test_inverse_reverses_the_word(self, w, depth, word):
        # the generators are involutions
        assert word_action(word, w, depth).inverse() == word_action(word[::-1], w, depth)


class TestTreeAutomorphism:
    def test_incoherent_permutation_rejected(self):
        # swapping leaves 0 and 2 does not come from a tree automorphism
        with pytest.raises(ValueError):
            TreeAutomorphism(2, (2, 1, 0, 3))

    @given(w=OMEGAS, depth=DEPTHS, word=WORDS)
    def test_level_perms_are_coherent(self, w, depth, word):
        act = word_action(word, w, depth)
        for k in range(1, depth):
            upper = act.level_perm(k)
            lower = act.level_perm(k + 1)
            for v in range(1 << (k + 1)):
                assert lower[v] >> 1 == upper[v >> 1]


class TestVerifyTrivial:
    def test_known_relations(self):
        w = OmegaWord.parse(":01")
        for rel in ("aa", "bb", "cc", "dd", "bcd", "dbc"):
            assert verify_trivial(rel, w, 8)

    def test_fourth_power_of_ad(self):
        # for the classic sequence (ad)^4 = 1 but ad itself is not trivial
        w = OmegaWord.parse(":012")
        assert verify_trivial("ad" * 4, w, 10)
        assert not verify_trivial("ad", w, 10)

    def test_depth_is_reported(self):
        w = OmegaWord.parse(":012")
        r = verify_trivial("aa", w, 5)
        assert r.trivial and r.depth == 5
