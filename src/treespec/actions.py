"""Depth-truncated automorphisms of the binary rooted tree.

Vertices of level k are the binary words of length k, ordered
lexicographically with 0 < 1 and encoded as integers 0 .. 2^k - 1.  An
automorphism truncated to depth d is stored as its permutation of the
deepest level, a read-only ``np.intp`` array; the permutations of the
shallower levels are the prefix projections, and prefix coherence (children
of a common parent stay siblings) is validated at construction.  The
permutation as a tuple of Python ints is built only when ``leaf_perm`` is
read.  A generator's permutation is built in one pass: the branch swaps it
is made of act on disjoint blocks of leaves, so each is one XOR on a slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import _require_int
from .omega import ACTIVE, OmegaWord

GENERATORS = ("a", "b", "c", "d")


class TreeAutomorphism:
    """Automorphism of the binary tree truncated to ``depth`` levels.

    ``perm`` is the read-only leaf permutation.  Equality and hashing are by
    value, on (depth, permutation).
    """

    def __init__(self, depth: int, leaf_perm):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        perm = np.asarray(leaf_perm)
        if perm.dtype.kind not in "iu":
            raise ValueError("leaf_perm entries must be integers")
        perm = perm.astype(np.intp)  # the one copy, which this object owns
        n = 1 << depth
        if (
            perm.shape != (n,)
            or perm.min() < 0
            or perm.max() >= n
            or np.bincount(perm, minlength=n).max() > 1
        ):
            raise ValueError("leaf_perm is not a permutation of the leaves")
        # prefix coherence: siblings map to siblings, level by level upwards
        q = perm
        while len(q) > 2:
            parents = q[0::2] >> 1
            if np.any(parents != q[1::2] >> 1):
                raise ValueError("leaf permutation is not tree-coherent")
            q = parents
        self._set(depth, perm)

    def _set(self, depth: int, perm: np.ndarray) -> None:
        perm.flags.writeable = False
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "perm", perm)

    @classmethod
    def _trusted(cls, depth: int, perm: np.ndarray) -> "TreeAutomorphism":
        """Wrap an ``intp`` array known to be a coherent permutation (a
        product of automorphisms), taking ownership of it."""
        self = object.__new__(cls)
        self._set(depth, perm)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, TreeAutomorphism):
            return NotImplemented
        return self.depth == other.depth and np.array_equal(self.perm, other.perm)

    def __hash__(self):
        return hash((self.depth, self.perm.tobytes()))

    def __repr__(self):
        return f"TreeAutomorphism(depth={self.depth}, perm={self.perm.tolist()})"

    @cached_property
    def leaf_perm(self) -> tuple[int, ...]:
        """The leaf permutation as a tuple of Python ints, built on first read."""
        return tuple(self.perm.tolist())

    @staticmethod
    def identity(depth: int) -> "TreeAutomorphism":
        return TreeAutomorphism(depth, np.arange(1 << depth))

    def level_perm(self, k: int) -> np.ndarray:
        """Induced permutation of level k <= depth (prefix projection)."""
        if not 1 <= k <= self.depth:
            raise ValueError("level out of range")
        shift = self.depth - k
        return self.perm[:: 1 << shift] >> shift

    def apply(self, vertex: int) -> int:
        """Image of a leaf given as an integer."""
        return int(self.perm[vertex])

    def compose(self, other: "TreeAutomorphism") -> "TreeAutomorphism":
        """self after other: (self * other)(v) = self(other(v))."""
        if self.depth != other.depth:
            raise ValueError("depth mismatch")
        return TreeAutomorphism._trusted(self.depth, self.perm[other.perm])

    def inverse(self) -> "TreeAutomorphism":
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(len(inv))
        return TreeAutomorphism._trusted(self.depth, inv)

    def is_identity(self) -> bool:
        return bool((self.perm == np.arange(len(self.perm))).all())


# typed: a float depth equal to a cached int one misses the cache and is refused
@lru_cache(maxsize=4096, typed=True)
def generator_action(g: str, w: OmegaWord, depth: int) -> TreeAutomorphism:
    """Truncation to ``depth`` of one of the four generators.

    ``a`` swaps the two top branches.  ``b``, ``c``, ``d`` are the products
    of the branch swaps at the positions where the sequence makes the letter
    active; only positions below ``depth`` act on the truncation.  The swap
    at position n exchanges the two subtrees below 1^(n-1)0, whose leaves
    form one contiguous block, so it flips one bit on that block.  A product
    of branch swaps is a tree automorphism, so the result is not validated.
    """
    _require_int("depth", depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    perm = np.arange(1 << depth, dtype=np.intp)
    if g == "a":
        perm ^= 1 << (depth - 1)
        return TreeAutomorphism._trusted(depth, perm)
    if g not in ACTIVE:
        raise ValueError(f"unknown generator {g!r}")
    active = ACTIVE[g]
    for n in range(1, depth):
        if w.symbol(n) in active:
            block = 1 << (depth - n)
            lo = (1 << depth) - 2 * block  # leaves below 1^(n-1)0
            perm[lo : lo + block] ^= block >> 1
    return TreeAutomorphism._trusted(depth, perm)


def _generator_table(w: OmegaWord, depth: int) -> np.ndarray:
    """The generators' leaf permutations at ``depth``, one row each."""
    return np.stack([generator_action(g, w, depth).perm for g in GENERATORS])


def word_action(word: str, w: OmegaWord, depth: int) -> TreeAutomorphism:
    """Action of a word over {a,b,c,d}; the leftmost letter acts last."""
    _require_int("depth", depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    gens = {g: generator_action(g, w, depth).perm for g in set(word)}
    perm = np.arange(1 << depth, dtype=np.intp)
    for letter in word:
        perm = perm[gens[letter]]
    return TreeAutomorphism._trusted(depth, perm)


@dataclass(frozen=True)
class TrivialityResult:
    trivial: bool
    depth: int

    def __bool__(self) -> bool:
        return self.trivial


def verify_trivial(word: str, w: OmegaWord, depth: int) -> TrivialityResult:
    """Check whether a word acts as the identity at the given depth.

    A negative answer proves nontriviality.  A positive one is a proof at
    depth >= ``growth.comparison_depth(w, len(word))`` and evidence below it;
    the ``group`` benchmark's relators need depth 9 and are checked at 11.
    """
    return TrivialityResult(word_action(word, w, depth).is_identity(), depth)
