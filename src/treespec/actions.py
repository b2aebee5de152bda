"""Depth-truncated automorphisms of the binary rooted tree.

Vertices of level k are the binary words of length k, ordered
lexicographically with 0 < 1 and encoded as integers 0 .. 2^k - 1.  An
automorphism truncated to depth d is stored as its permutation of the
deepest level; the permutations of the shallower levels are the prefix
projections, and prefix coherence (children of a common parent stay
siblings) is validated at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .omega import ACTIVE, OmegaWord

GENERATORS = ("a", "b", "c", "d")


@dataclass(frozen=True)
class TreeAutomorphism:
    """Automorphism of the binary tree truncated to ``depth`` levels."""

    depth: int
    leaf_perm: tuple[int, ...]

    def __post_init__(self):
        d = self.depth
        if d < 1:
            raise ValueError("depth must be >= 1")
        n = 1 << d
        if len(self.leaf_perm) != n or set(self.leaf_perm) != set(range(n)):
            raise ValueError("leaf_perm is not a permutation of the leaves")
        # prefix coherence: the induced prefix maps must be well defined
        perm = np.asarray(self.leaf_perm)
        for k in range(d - 1, 0, -1):
            shift = d - k
            parents = perm >> shift
            if np.any(np.ptp(parents.reshape(-1, 1 << shift), axis=1)):
                raise ValueError("leaf permutation is not tree-coherent")

    @staticmethod
    def identity(depth: int) -> "TreeAutomorphism":
        return TreeAutomorphism(depth, tuple(range(1 << depth)))

    def level_perm(self, k: int) -> tuple[int, ...]:
        """Induced permutation of level k <= depth (prefix projection)."""
        if not 1 <= k <= self.depth:
            raise ValueError("level out of range")
        shift = self.depth - k
        return tuple(self.leaf_perm[i << shift] >> shift for i in range(1 << k))

    def apply(self, vertex: int) -> int:
        """Image of a leaf given as an integer."""
        return self.leaf_perm[vertex]

    def compose(self, other: "TreeAutomorphism") -> "TreeAutomorphism":
        """self after other: (self * other)(v) = self(other(v))."""
        if self.depth != other.depth:
            raise ValueError("depth mismatch")
        sp = np.asarray(self.leaf_perm)
        op = np.asarray(other.leaf_perm)
        return TreeAutomorphism(self.depth, tuple(int(x) for x in sp[op]))

    def inverse(self) -> "TreeAutomorphism":
        inv = [0] * len(self.leaf_perm)
        for i, j in enumerate(self.leaf_perm):
            inv[j] = i
        return TreeAutomorphism(self.depth, tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.leaf_perm))


def _sigma_leaf_perm(n: int, depth: int) -> np.ndarray:
    """Leaf permutation of the branch swap adjacent to 1^(n-1)0 (root for n=0).

    Swaps the two subtrees below that vertex, i.e. flips bit n (0-based from
    the root) of every leaf whose first n bits spell the vertex.  Trivial
    when n >= depth.
    """
    size = 1 << depth
    perm = np.arange(size)
    if n >= depth:
        return perm
    flip = 1 << (depth - n - 1)
    if n == 0:
        return perm ^ flip
    # prefix 1^(n-1)0 as an integer occupying the top n bits
    prefix = ((1 << (n - 1)) - 1) << 1
    mask = perm >> (depth - n) == prefix
    perm[mask] ^= flip
    return perm


@lru_cache(maxsize=4096)
def generator_action(g: str, w: OmegaWord, depth: int) -> TreeAutomorphism:
    """Truncation to ``depth`` of one of the four generators.

    ``a`` swaps the two top branches.  ``b``, ``c``, ``d`` are the products
    of the branch swaps at the positions where the sequence makes the letter
    active; only positions below ``depth`` act on the truncation.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if g == "a":
        return TreeAutomorphism(depth, tuple(int(x) for x in _sigma_leaf_perm(0, depth)))
    if g not in ACTIVE:
        raise ValueError(f"unknown generator {g!r}")
    active = ACTIVE[g]
    perm = np.arange(1 << depth)
    for n in range(1, depth):
        if w.symbol(n) in active:
            perm = _sigma_leaf_perm(n, depth)[perm]
    return TreeAutomorphism(depth, tuple(int(x) for x in perm))


def word_action(word: str, w: OmegaWord, depth: int) -> TreeAutomorphism:
    """Action of a word over {a,b,c,d}; the leftmost letter acts last."""
    gens = {g: np.array(generator_action(g, w, depth).leaf_perm) for g in set(word)}
    perm = np.arange(1 << depth)
    for letter in word:
        perm = perm[gens[letter]]
    return TreeAutomorphism(depth, tuple(int(x) for x in perm))


@dataclass(frozen=True)
class TrivialityResult:
    trivial: bool
    depth: int

    def __bool__(self) -> bool:
        return self.trivial


def verify_trivial(word: str, w: OmegaWord, depth: int) -> TrivialityResult:
    """Check whether a word acts as the identity at the given depth.

    A positive answer is evidence verified to ``depth`` only; a negative
    answer is a proof of nontriviality.
    """
    return TrivialityResult(word_action(word, w, depth).is_identity(), depth)
