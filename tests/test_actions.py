import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treespec import (
    OmegaWord,
    TreeAutomorphism,
    cayley_ball,
    dihedral_reduction_check,
    enumerate_ball,
    generator_action,
    level_projection_covering,
    spectrum_sweep,
    verify_trivial,
    word_action,
)
from treespec.omega import ACTIVE

WORDS = st.text(alphabet="abcd", min_size=0, max_size=8)
OMEGAS = st.builds(
    OmegaWord,
    st.lists(st.integers(0, 2), max_size=2).map(tuple),
    st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
)
DEPTHS = st.integers(min_value=1, max_value=6)


def portrait_perms(depth):
    """Leaf permutations of arbitrary automorphisms of the given depth, not
    only of group elements: a swap bit at every vertex above the leaves,
    vertices in level order."""
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
        return tuple(perm)

    return st.lists(st.integers(0, 1), min_size=size, max_size=size).map(build)


def portraits(depth):
    return portrait_perms(depth).map(lambda perm: TreeAutomorphism(depth, perm))


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

    @pytest.mark.parametrize("g", ["a", "b"])
    @pytest.mark.parametrize("depth", [2.5, 3.0, "3", None])
    def test_depth_not_an_int_named(self, g, depth):
        # 2.5 raised a bare TypeError from ``1 << depth``; a cached depth 3
        # must not let an equal 3.0 through
        w = OmegaWord.parse(":012")
        generator_action(g, w, 3)
        with pytest.raises(ValueError, match=re.escape(f"depth {depth!r} is not an int")):
            generator_action(g, w, depth)

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
        assert np.array_equal(deep.level_perm(depth - 1), shallow.perm)

    @pytest.mark.parametrize("word", ["", "a", "bcd"])
    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_refused(self, word, depth):
        # the empty word built TreeAutomorphism(depth=0, perm=[0]), which the
        # constructor refuses, and verify_trivial called it trivial
        w = OmegaWord.parse(":012")
        with pytest.raises(ValueError, match="depth must be >= 1"):
            word_action(word, w, depth)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            verify_trivial(word, w, depth)

    @pytest.mark.parametrize("depth", [2.5, 3.0, "3", None])
    def test_depth_not_an_int_named(self, depth):
        with pytest.raises(ValueError, match=re.escape(f"depth {depth!r} is not an int")):
            word_action("ab", OmegaWord.parse(":012"), depth)

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
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda w: TreeAutomorphism(0, [0]), "depth must be >= 1"),
            (lambda w: TreeAutomorphism.identity(3).level_perm(5), "level out of range"),
            (lambda w: generator_action("a", w, 3).compose(generator_action("a", w, 2)),
             "depth mismatch"),
            (lambda w: generator_action("a", w, 0), "depth must be >= 1"),
            (lambda w: generator_action("x", w, 3), "unknown generator 'x'"),
        ],
        ids=["depth", "level_perm", "compose", "generator_depth", "generator_letter"],
    )
    def test_bad_argument_named(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(OmegaWord.parse(":012"))

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


# reference routes: the set-and-ptp validator and the product of branch-swap
# compositions that the array checks and the block XOR replaced


def reference_validate(depth, leaf_perm):
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = 1 << depth
    if len(leaf_perm) != n or set(leaf_perm) != set(range(n)):
        raise ValueError("leaf_perm is not a permutation of the leaves")
    perm = np.asarray(leaf_perm)
    for k in range(depth - 1, 0, -1):
        shift = depth - k
        parents = perm >> shift
        if np.any(np.ptp(parents.reshape(-1, 1 << shift), axis=1)):
            raise ValueError("leaf permutation is not tree-coherent")


def sigma_leaf_perm(n, depth):
    """Leaf permutation of the branch swap below 1^(n-1)0 (the root for n = 0)."""
    perm = np.arange(1 << depth)
    if n >= depth:
        return perm
    flip = 1 << (depth - n - 1)
    if n == 0:
        return perm ^ flip
    prefix = ((1 << (n - 1)) - 1) << 1
    mask = perm >> (depth - n) == prefix
    perm[mask] ^= flip
    return perm


def reference_generator_perm(g, w, depth):
    if g == "a":
        return sigma_leaf_perm(0, depth)
    perm = np.arange(1 << depth)
    for n in range(1, depth):
        if w.symbol(n) in ACTIVE[g]:
            perm = sigma_leaf_perm(n, depth)[perm]
    return perm


def _replace(perm, i, value):
    out = list(perm)
    out[i % len(out)] = value
    return tuple(out)


def _swap(perm, i, j):
    out = list(perm)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def candidate_perms(depth):
    """Valid, shuffled, swapped, out-of-range and resized leaf tuples."""
    n = 1 << depth
    valid = portrait_perms(depth)
    index = st.integers(0, n - 1)
    return st.one_of(
        valid,
        st.permutations(range(n)).map(tuple),
        st.tuples(valid, index, index).map(lambda t: _swap(*t)),
        st.tuples(valid, index, st.integers(-n, 2 * n)).map(lambda t: _replace(*t)),
        valid.flatmap(lambda t: st.sampled_from([t[:-1], t + (0,), t + (n,)])),
    )


def float_perms(depth):
    """Leaf tuples with float entries, integral or not."""
    valid = portrait_perms(depth)
    return st.one_of(
        valid.map(lambda t: tuple(float(x) for x in t)),
        st.tuples(valid, st.integers(0, (1 << depth) - 1), st.sampled_from([0.0, 0.5])).map(
            lambda t: _replace(t[0], t[1], t[0][t[1]] + t[2])
        ),
    )


def accepts(validate, depth, leaf_perm, rejections):
    try:
        validate(depth, leaf_perm)
    except rejections:
        return False
    return True


class TestArrayStorage:
    @given(DEPTHS.flatmap(lambda d: st.tuples(st.just(d), candidate_perms(d))))
    def test_validator_matches_reference(self, case):
        depth, perm = case
        # the array validator rejects with ValueError only
        assert accepts(TreeAutomorphism, depth, perm, ValueError) == accepts(
            reference_validate, depth, perm, ValueError
        )

    @given(
        st.integers(2, 6).flatmap(lambda d: st.tuples(st.just(d), float_perms(d)))
    )
    def test_float_entries_rejected_as_by_reference(self, case):
        # the reference rejects floats at depth >= 2: a fraction fails the
        # set comparison and an integral float fails the shift
        depth, perm = case
        assert not accepts(reference_validate, depth, perm, (ValueError, TypeError))
        with pytest.raises(ValueError):
            TreeAutomorphism(depth, perm)

    @pytest.mark.parametrize("perm", [(1.0, 0.0), (True, False)])
    def test_non_integer_entries_rejected_at_depth_one(self, perm):
        # the reference accepted these: at depth 1 it runs no shift
        with pytest.raises(ValueError):
            TreeAutomorphism(1, perm)

    @given(w=OMEGAS, depth=st.integers(1, 12), g=st.sampled_from("abcd"))
    def test_block_xor_matches_product_of_swaps(self, w, depth, g):
        perm = generator_action(g, w, depth).perm
        assert perm.dtype == np.intp
        assert np.array_equal(perm, reference_generator_perm(g, w, depth))

    @given(AUTOMORPHISMS)
    def test_tuple_and_array_construction_agree(self, a):
        for source in (a.leaf_perm, np.array(a.leaf_perm), np.array(a.leaf_perm, np.uint8)):
            b = TreeAutomorphism(a.depth, source)
            assert b == a and hash(b) == hash(a)
            assert b.leaf_perm == a.leaf_perm

    def test_depth_is_part_of_the_value(self):
        a = TreeAutomorphism(1, (0, 1))
        assert a != TreeAutomorphism(2, (0, 1, 2, 3))
        assert a != (0, 1)
        assert len({a, TreeAutomorphism(1, np.arange(2)), TreeAutomorphism(2, np.arange(4))}) == 2

    def test_source_is_copied(self):
        source = np.array([1, 0, 2, 3])
        a = TreeAutomorphism(2, source)
        source[:] = [0, 1, 2, 3]
        assert a.leaf_perm == (1, 0, 2, 3)

    def test_perm_is_read_only(self):
        a = TreeAutomorphism(2, (1, 0, 2, 3))
        with pytest.raises(ValueError):
            a.perm[0] = 0
        with pytest.raises(AttributeError):
            a.perm = np.arange(4)
        with pytest.raises(AttributeError):
            a.depth = 3

    def test_cached_generator_is_read_only(self):
        w = OmegaWord.parse(":012")
        b = generator_action("b", w, 5)
        with pytest.raises(ValueError):
            b.perm[:] = 0
        assert generator_action("b", w, 5) is b
        assert np.array_equal(b.perm, reference_generator_perm("b", w, 5))


def test_no_leaf_tuple_on_hot_paths(monkeypatch):
    def refuse(self):
        raise AssertionError("leaf_perm tuple built")

    monkeypatch.setattr(TreeAutomorphism, "leaf_perm", property(refuse))
    w = OmegaWord.parse(":012")
    assert spectrum_sweep(w, 8).all_contained
    assert enumerate_ball(w, 6).sizes[-1] > 1
    assert cayley_ball(w, 6, 1).covering is not None
    assert verify_trivial("ad" * 4, w, 10)
    assert level_projection_covering(w, 4, 2) is not None
    assert dihedral_reduction_check(w, 6).t_squared_is_identity
