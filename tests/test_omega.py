import re

import pytest
from hypothesis import given, strategies as st

from treespec import AlmostConstantError, OmegaWord, classify_omega

SYMS = st.integers(min_value=0, max_value=2)


def word(pre, per):
    return OmegaWord(tuple(pre), tuple(per))


class TestParse:
    def test_pure_periodic(self):
        w = OmegaWord.parse(":012")
        assert w.preperiod == () and w.period == (0, 1, 2)

    def test_preperiod(self):
        w = OmegaWord.parse("20:01")
        assert w.preperiod == (2, 0) and w.period == (0, 1)

    def test_bad_symbol(self):
        with pytest.raises(ValueError):
            OmegaWord.parse(":013")

    @pytest.mark.parametrize("text, bad", [(":0a", "a"), ("x:0", "x"), (":0 1", " "), (":-1", "-")])
    def test_bad_symbol_and_word_named(self, text, bad):
        # a letter raised int()'s "invalid literal for int() with base 10"
        with pytest.raises(ValueError, match=f"symbol {bad!r} in omega {text!r} not in"):
            OmegaWord.parse(text)

    def test_empty_period(self):
        with pytest.raises(ValueError):
            OmegaWord.parse("0:")

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: OmegaWord((), ()), "period must be nonempty"),
            (lambda: OmegaWord((3,), (0,)), "symbol 3 not in {0,1,2}"),
            (lambda: OmegaWord.parse(":012").symbol(0), "positions are 1-based"),
        ],
        ids=["empty_period", "symbol", "position"],
    )
    def test_bad_word_or_position_named(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_roundtrip_str(self):
        assert str(OmegaWord.parse("20:01")) == "20:01"


class TestIndexing:
    def test_prefix_unfolds_period(self):
        w = OmegaWord.parse("2:01")
        assert w.prefix(7) == (2, 0, 1, 0, 1, 0, 1)

    @given(pre=st.lists(SYMS, max_size=4), per=st.lists(SYMS, min_size=1, max_size=4), n=st.integers(1, 50))
    def test_symbol_matches_prefix(self, pre, per, n):
        w = word(pre, per)
        assert w.symbol(n) == w.prefix(n)[-1]

    @given(pre=st.lists(SYMS, max_size=4), per=st.lists(SYMS, min_size=1, max_size=4))
    def test_shift_drops_first_symbol(self, pre, per):
        w = word(pre, per)
        assert w.shift().prefix(9) == w.prefix(10)[1:]


class TestClassification:
    def test_omega2_membership(self):
        assert OmegaWord.parse(":012").in_omega2
        assert OmegaWord.parse(":01").in_omega2
        assert not OmegaWord.parse("01:2").in_omega2
        assert not OmegaWord.parse(":0").in_omega2

    def test_almost_constant(self):
        w = OmegaWord.parse("12:0")
        assert w.is_almost_constant and not w.is_constant
        assert OmegaWord.parse(":1").is_constant

    def test_type_examples(self):
        # repeated first symbol: form 1 with a run of x's
        c = classify_omega(OmegaWord.parse(":0012"))
        assert c.kind == 1 and c.xyz == (0, 1, 2) and c.n == 3
        # x returns right after the y-run: form 2
        c = classify_omega(OmegaWord.parse(":010212"))
        assert c.kind == 2 and c.xyz[0] == 0 and c.n == 3
        # the third symbol follows the y-run: form 3
        c = classify_omega(OmegaWord.parse(":0112"))
        assert c.kind == 3 and c.xyz == (0, 1, 2) and c.n == 4
        c = classify_omega(OmegaWord.parse(":012"))
        assert c.kind == 3 and c.xyz == (0, 1, 2) and c.n == 3

    def test_constant_word_has_no_form(self):
        c = classify_omega(OmegaWord.parse(":2"))
        assert c.kind is None

    def test_xy_tail_rejected(self):
        with pytest.raises(AlmostConstantError):
            classify_omega(OmegaWord.parse("1:0"))

    @given(pre=st.lists(SYMS, max_size=3), per=st.lists(SYMS, min_size=1, max_size=5))
    def test_roles_are_a_permutation(self, pre, per):
        w = word(pre, per)
        if w.is_constant:
            return
        try:
            c = classify_omega(w)
        except AlmostConstantError:
            assert w.is_almost_constant
            return
        assert sorted(c.xyz) == [0, 1, 2]
        assert c.kind in (1, 2, 3)
        assert c.n > 2
        # the classified prefix is reproducible from (kind, xyz, n)
        x, y, z = c.xyz
        if c.kind == 1:
            assert w.prefix(c.n) == (x,) * (c.n - 1) + (y,)
        elif c.kind == 2:
            assert w.prefix(c.n) == (x,) + (y,) * (c.n - 2) + (x,)
        else:
            assert w.prefix(c.n) == (x,) + (y,) * (c.n - 2) + (z,)
