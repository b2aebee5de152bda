import re

import pytest
from hypothesis import given, settings, strategies as st

from treespec import (
    AlmostConstantError,
    OmegaWord,
    abelianization_class,
    relators_U,
    verify_trivial,
    word_action,
)
from treespec.growth import comparison_depth
from treespec.presentation import STANDARD_RELATIONS

WORDS = st.text(alphabet="abcd", max_size=12)

# enough depth to catch any nontrivial action of relators this short
DEPTH = 10

SYMBOL_LISTS = st.lists(st.integers(0, 2), max_size=3)
# sequences outside the almost-constant ones: at least two symbols recur
NORMAL_FORM_OMEGAS = st.builds(
    lambda pre, per: OmegaWord(tuple(pre), tuple(per)),
    SYMBOL_LISTS,
    SYMBOL_LISTS.filter(lambda per: len(set(per)) >= 2),
)


class TestRelatorFamilies:
    @pytest.mark.parametrize("k", [2.5, 2.0, "2", None])
    def test_k_not_an_int_named(self, k):
        # 2.5 recursed to 0.5 and was then refused as "k must be >= 1"
        with pytest.raises(ValueError, match=re.escape(f"k {k!r} is not an int")):
            relators_U(OmegaWord.parse(":012"), k)

    @pytest.mark.parametrize("omega", [":012", ":01", ":0012", ":0102", "2:01", ":021"])
    def test_u1_relators_act_trivially(self, omega):
        w = OmegaWord.parse(omega)
        rels = relators_U(w, 1)
        assert rels
        for r in rels:
            assert verify_trivial(r, w, DEPTH), r

    @pytest.mark.parametrize("omega", [":012", ":01", ":0012"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_lifted_relators_act_trivially(self, omega, k):
        w = OmegaWord.parse(omega)
        for r in relators_U(w, k):
            assert verify_trivial(r, w, DEPTH), (k, r)

    @settings(max_examples=30, deadline=None)
    @given(w=NORMAL_FORM_OMEGAS)
    def test_relators_trivial_at_comparison_depth(self, w):
        # trivial action at this depth proves the relator trivial in the group
        for k in (1, 2, 3):
            for r in relators_U(w, k):
                assert verify_trivial(r, w, comparison_depth(w, len(r))), (k, r)

    @pytest.mark.parametrize("omega", [":012", ":01", ":0012"])
    def test_relators_lie_in_commutator_subgroup(self, omega):
        w = OmegaWord.parse(omega)
        for k in (1, 2):
            for r in relators_U(w, k):
                assert abelianization_class(r) == (0, 0, 0), (k, r)

    def test_almost_constant_rejected(self):
        with pytest.raises(AlmostConstantError):
            relators_U(OmegaWord.parse("12:0"), 1)
        with pytest.raises(AlmostConstantError):
            relators_U(OmegaWord.parse(":1"), 1)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            relators_U(OmegaWord.parse(":012"), 0)

    def test_type1_family_size(self):
        # type 1 with n = 3 gives 1 + 2^(n-1) relators
        w = OmegaWord.parse(":0012")
        assert len(relators_U(w, 1)) == 1 + 2 ** 2

    def test_type23_family_size(self):
        assert len(relators_U(OmegaWord.parse(":012"), 1)) == 2
        assert len(relators_U(OmegaWord.parse(":0102"), 1)) == 2


class TestAbelianization:
    def test_standard_relations_die(self):
        for rel in STANDARD_RELATIONS:
            assert abelianization_class(rel) == (0, 0, 0)

    def test_generators_are_independent(self):
        assert abelianization_class("a") == (1, 0, 0)
        assert abelianization_class("b") == (0, 1, 0)
        assert abelianization_class("c") == (0, 0, 1)
        assert abelianization_class("d") == (0, 1, 1)

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            abelianization_class("abe")

    @given(u=WORDS, v=WORDS)
    def test_homomorphism(self, u, v):
        x = abelianization_class(u)
        y = abelianization_class(v)
        assert abelianization_class(u + v) == tuple(p ^ q for p, q in zip(x, y))

    @given(u=WORDS)
    def test_squares_are_commutators(self, u):
        assert abelianization_class(u + u) == (0, 0, 0)

    @given(u=WORDS)
    def test_trivial_action_needs_trivial_abelianization(self, u):
        # the abelianization invariant is a sound triviality filter
        w = OmegaWord.parse(":012")
        if word_action(u, w, 6).is_identity():
            assert abelianization_class(u) == (0, 0, 0) or all(
                abelianization_class(u)[i] == 0 for i in range(3)
            ) or _ab_kernel_ok(u, w)


def _ab_kernel_ok(u, w):
    # a word may act trivially at depth 6 yet be nontrivial in the group;
    # but a word trivial in the group has zero abelianization, so check deeper
    return not verify_trivial(u, w, 11).trivial
