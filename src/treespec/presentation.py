"""Relator families for the tree groups and the abelianization filter.

The relator families U_k are built from the normal form of the defining
sequence under the identification symbol 0 <-> letter d, 1 <-> c, 2 <-> b,
with the level-k families obtained by a role-preserving substitution from
the shifted sequence.
"""

from __future__ import annotations

from .config import _require_int
from .omega import AlmostConstantError, OmegaWord, classify_omega

# symbol <-> letter identification: 0=d, 1=c, 2=b
SYMBOL_TO_LETTER = {0: "d", 1: "c", 2: "b"}

STANDARD_RELATIONS = ("aa", "bb", "cc", "dd", "bcd")


def _roles(w: OmegaWord) -> tuple[str, str, str]:
    """Letters playing the roles (x, y, z) for a non-almost-constant word."""
    cls = classify_omega(w)
    if cls.kind is None or cls.almost_constant:
        raise AlmostConstantError(
            f"relator scheme undefined for almost-constant sequence {w}"
        )
    x, y, z = cls.xyz
    return SYMBOL_TO_LETTER[x], SYMBOL_TO_LETTER[y], SYMBOL_TO_LETTER[z]


def _base_relators(w: OmegaWord) -> list[str]:
    """The level-1 relator family, by normal-form type."""
    cls = classify_omega(w)
    x, y, z = _roles(w)
    n = cls.n
    if cls.kind == 1:
        rels = [(x + "a" + y + "a") * 4]
        for k in range(1, 2 ** (n - 1) + 1):
            rels.append((x + "a" + (y + "a") * (2 * k)) * 4)
        return rels
    if cls.kind == 2:
        return [(x + "a" + y + "a" + y + "a") * 4, (x + "a" + y + "a") * (2 ** n)]
    return [(x + "a" + y + "a" + y + "a") * 4, (z + "a" + y + "a") * (2 ** n)]


def _substitute(word: str, w: OmegaWord) -> str:
    """Substitution lifting relators of the shifted sequence one level up.

    The letters b, c, d are kept and 'a' maps to a y a, where y is the
    letter in the y-role of the full sequence.  This is the lift coming from
    the wreath recursion: y is active at the first position, so a y a swaps
    the two branches of the right subtree, realizing the top swap of the
    shifted group there.
    """
    _x, y, _z = _roles(w)
    table = {"b": "b", "c": "c", "d": "d", "a": "a" + y + "a"}
    return "".join(table[c] for c in word)


def relators_U(w: OmegaWord, k: int) -> list[str]:
    """The level-k relator family U_k as words over {a,b,c,d}.

    Raises :class:`AlmostConstantError` for almost-constant sequences, where
    the scheme is undefined.
    """
    _require_int("k", k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return _base_relators(w)
    return [_substitute(u, w) for u in relators_U(w.shift(), k - 1)]


def abelianization_class(word: str) -> tuple[int, int, int]:
    """Image of a word in the abelianization of <a,b,c,d | a2,b2,c2,d2,bcd>.

    The abelianization is (Z/2)^3 on (a, b, c) after eliminating d = bc.
    Returns the parity triple (a, b, c); the zero triple is exactly
    membership in the commutator subgroup.
    """
    pa = pb = pc = 0
    for c in word:
        if c == "a":
            pa ^= 1
        elif c == "b":
            pb ^= 1
        elif c == "c":
            pc ^= 1
        elif c == "d":
            pb ^= 1
            pc ^= 1
        else:
            raise ValueError(f"letter {c!r} not in alphabet abcd")
    return (pa, pb, pc)
