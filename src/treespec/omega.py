"""Eventually periodic symbol sequences over {0,1,2} and their classification.

A sequence omega determines a group of binary-tree automorphisms through the
activity pattern of its symbols: symbol 0 makes the b- and c-generators active
at that position, symbol 1 makes b and d active, symbol 2 makes c and d active.
The classification into three normal forms drives the relator scheme in
:mod:`treespec.presentation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

SYMBOLS = (0, 1, 2)

# active generator letters per symbol: rows of the 3x3 activity table
_B_ACTIVE = {0, 1}
_C_ACTIVE = {0, 2}
_D_ACTIVE = {1, 2}

ACTIVE = {"b": _B_ACTIVE, "c": _C_ACTIVE, "d": _D_ACTIVE}


class AlmostConstantError(ValueError):
    """Raised where the relator scheme needs a non-almost-constant sequence."""


@dataclass(frozen=True)
class OmegaWord:
    """Eventually periodic infinite word: a finite preperiod then a cycled period."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if len(self.period) < 1:
            raise ValueError("period must be nonempty")
        for s in self.preperiod + self.period:
            if s not in SYMBOLS:
                raise ValueError(f"symbol {s!r} not in {{0,1,2}}")

    @staticmethod
    def parse(text: str) -> "OmegaWord":
        """Parse 'PRE:PERIOD' notation, e.g. ':012' for the purely periodic word."""
        if ":" not in text:
            raise ValueError("omega must be given as PRE:PERIOD, e.g. ':012'")
        pre, per = text.split(":", 1)
        if not per:
            raise ValueError("period part must be nonempty")
        bad = next((c for c in pre + per if c not in "012"), None)
        if bad is not None:
            raise ValueError(f"symbol {bad!r} in omega {text!r} not in {{0,1,2}}")
        return OmegaWord(tuple(int(c) for c in pre), tuple(int(c) for c in per))

    def __str__(self) -> str:
        pre = "".join(str(s) for s in self.preperiod)
        per = "".join(str(s) for s in self.period)
        return f"{pre}:{per}"

    def symbol(self, n: int) -> int:
        """Symbol at 1-based position n."""
        if n < 1:
            raise ValueError("positions are 1-based")
        i = n - 1
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> tuple[int, ...]:
        return tuple(self.symbol(i) for i in range(1, n + 1))

    @property
    def in_omega2(self) -> bool:
        """True iff at least two distinct symbols occur infinitely often.

        For an eventually periodic word this is exactly: the period contains
        at least two distinct symbols.
        """
        return len(set(self.period)) >= 2

    @property
    def is_constant(self) -> bool:
        sym = set(self.preperiod) | set(self.period)
        return len(sym) == 1

    @property
    def is_almost_constant(self) -> bool:
        """True iff all but finitely many symbols are equal."""
        return len(set(self.period)) == 1

    def shift(self) -> "OmegaWord":
        """Drop the first symbol."""
        if self.preperiod:
            return OmegaWord(self.preperiod[1:], self.period)
        return OmegaWord((), self.period[1:] + self.period[:1])


@dataclass(frozen=True)
class OmegaClass:
    """Classification record for a sequence.

    ``kind`` is 1, 2 or 3 for the three normal forms (available for any
    non-constant word), or None exactly for constant words.  ``xyz`` is the
    symbol permutation (x, y, z) of {0,1,2} and ``n`` the form length,
    defined when ``kind`` is set.
    """

    almost_constant: bool
    kind: Optional[int] = None
    xyz: Optional[tuple[int, int, int]] = None
    n: Optional[int] = None


def classify_omega(w: OmegaWord) -> OmegaClass:
    """Classify a sequence into one of the three normal forms.

    Every non-constant word starts, for a unique permutation (x, y, z) of
    {0,1,2} and a unique n > 2, as one of
      1) x...xy   (n-1 copies of x, then y),
      2) xy...yx  (n symbols),
      3) xy...yz  (n symbols, z the third symbol).
    Constant words carry no form.  Almost-constant non-constant words still
    get their form but are flagged, since the relator scheme excludes them.
    """
    almost = w.is_almost_constant
    if w.is_constant:
        return OmegaClass(almost)

    x = w.symbol(1)
    if w.symbol(2) == x:
        # type 1: maximal run of x, then y
        m = 2
        while w.symbol(m + 1) == x:
            m += 1
        y = w.symbol(m + 1)
        z = next(s for s in SYMBOLS if s not in (x, y))
        return OmegaClass(almost, kind=1, xyz=(x, y, z), n=m + 1)

    y = w.symbol(2)
    # maximal run of y starting at position 2; it ends because w is not
    # constant-from-position-2 unless w = x y^inf, which is almost constant
    m = 2
    horizon = len(w.preperiod) + len(w.period) + 2
    while w.symbol(m + 1) == y:
        m += 1
        if m > horizon:
            # x y^inf: almost constant, no form resolvable beyond the run
            raise AlmostConstantError(
                "sequence is x y^inf; normal form undefined"
            )
    nxt = w.symbol(m + 1)
    z = next(s for s in SYMBOLS if s not in (x, y))
    if nxt == x:
        return OmegaClass(almost, kind=2, xyz=(x, y, z), n=m + 1)
    return OmegaClass(almost, kind=3, xyz=(x, y, z), n=m + 1)
