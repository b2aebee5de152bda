"""Ball enumeration in the four-generator tree groups.

Group elements are compared through their action on a finite tree level.
The level is a comparison depth proven by the section-length bound of the
wreath recursion (:func:`comparison_depth`), so every census is exact.

A ball grows one shell at a time in numpy.  The frontier is held as the
inverse leaf permutations of its elements, on which a generator (a product
of branch swaps) acts by swapping column blocks.  Each candidate is looked
up once in a dict keyed on the exact bytes of its even-leaf columns, which
holds only the last three shells: a generator moves an element by at most
one shell.  A ball keeps only its neighbour table and its census; leaf
images (the leaf permutations, a Cayley ball's level images) are derived
from the BFS parents that the neighbour table records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .actions import GENERATORS, _generator_table
from .config import ResourceLimitError, _require_int_radii
from .omega import ACTIVE, OmegaWord

# the most elements one ball enumeration may hold
MAX_BALL_ELEMENTS = 200_000


@dataclass
class BallEnumeration:
    """BFS ball of the group at a fixed comparison depth.

    Elements are numbered in BFS order (index 0 = identity; each shell in
    the order its elements are first reached from the one before, element by
    element and generator by generator).  The ball holds two tables:

    - ``neighbors``: (N, 4) int32 array; ``neighbors[i, j]`` is the index of
      generator j * element i, or -1 on the outer shell where that product
      lies outside the ball.
    - ``sizes``: list of ints, ``sizes[r]`` the census of the radius-r ball,
      so element i has word length r where ``sizes[r - 1] <= i < sizes[r]``.

    ``stable`` is always True: distinct elements of the ball and its outer
    shell act differently at ``depth``, so the census is proven.
    """

    omega: OmegaWord
    depth: int
    neighbors: np.ndarray
    sizes: list[int]
    stable: ClassVar[bool] = True

    @cached_property
    def perms(self) -> np.ndarray:
        """Read-only leaf permutations by element, derived on first read, in the
        narrowest unsigned dtype that holds a leaf (uint8 up to depth 8)."""
        n = 1 << self.depth
        return _leaf_images(self, self.depth, np.arange(n, dtype=np.min_scalar_type(n - 1)))


def _leaf_images(enum: BallEnumeration, depth: int, start: np.ndarray) -> np.ndarray:
    """Read-only images of the level-``depth`` vertices ``start`` by element, in
    their dtype.  Ids are handed out in (element, generator) order, so the first
    neighbour cell that holds i > 0 names the parent and generator that reached i."""
    ids, first = np.unique(enum.neighbors.ravel(), return_index=True)
    parent, gen = np.divmod(first[ids > 0], len(GENERATORS))
    gens = _generator_table(enum.omega, depth).astype(start.dtype)
    rows = np.empty((enum.sizes[-1], len(start)), start.dtype)
    rows[0] = start
    for lo, hi in zip(enum.sizes, enum.sizes[1:]):  # a shell from the one before
        rows[lo:hi] = gens[gen[lo - 1 : hi - 1, None], rows[parent[lo - 1 : hi - 1]]]
    rows.flags.writeable = False
    return rows


def comparison_depth(w: OmegaWord, length: int) -> int:
    """Tree depth at which every nontrivial element of word length at most
    ``length`` acts nontrivially.

    A word with an even number of a's splits into two sections over the
    shifted sequence, each at most ceil(length / 2) long.  At length 2 or
    less a nontrivial element moves level 1 or is a single letter b, c or
    d, and a letter first active at position n acts from depth n + 1.
    """
    depth, k = 1, 0
    while True:
        horizon = len(w.preperiod) + len(w.period)
        for active in ACTIVE.values():
            first = next((n for n in range(1, horizon + 1) if w.symbol(n) in active), None)
            if first is not None:  # a letter never active again is trivial
                depth = max(depth, k + first + 1)
        if length <= 2:
            return depth
        length, w, k = (length + 1) // 2, w.shift(), k + 1


def _column_blocks(perm: np.ndarray) -> list[tuple[int, int, int]]:
    """The runs (start, source, length) of consecutive images of ``perm``,
    so that ``row[perm][start : start + length] == row[source : source + length]``."""
    starts = [0, *(np.flatnonzero(np.diff(perm) != 1) + 1).tolist(), len(perm)]
    return [(lo, int(perm[lo]), hi - lo) for lo, hi in zip(starts, starts[1:])]


def _products(inv: np.ndarray, blocks: list[list[tuple[int, int, int]]]) -> np.ndarray:
    """Inverse permutations of g * x for each row x^-1 of ``inv`` and each
    generator g, in (row, generator) order.  g is an involution, so
    (g x)^-1 = x^-1 g: the columns of x^-1 permuted by g, block by block."""
    out = np.empty((len(inv), len(blocks), inv.shape[1]), dtype=inv.dtype)
    for gi, runs in enumerate(blocks):
        for lo, src, length in runs:
            out[:, gi, lo : lo + length] = inv[:, src : src + length]
    return out.reshape(-1, inv.shape[1])


def _keys(perms: np.ndarray) -> list[bytes]:
    """Exact byte key of each row: an automorphism is fixed by its images of
    the even leaves, since ``perm[2i + 1] == perm[2i] ^ 1``."""
    even = np.ascontiguousarray(perms[:, ::2])
    return even.view(np.dtype((np.void, even.shape[1] * even.itemsize))).ravel().tolist()


def _row_chunks(pieces: list[np.ndarray], step: int):
    """The rows of the stacked ``pieces`` in order, ``step`` at most at a time."""
    for piece in pieces:
        for lo in range(0, len(piece), step):
            yield piece[lo : lo + step]


def _enumerate_at_depth(w: OmegaWord, radius: int, depth: int) -> BallEnumeration:
    blocks = [_column_blocks(perm) for perm in _generator_table(w, depth)]
    # rows per numpy step: 1024, and at most 2^18 leaves, so that the
    # temporaries of a step stay a few MiB at any depth
    step = max(1, min(1024, (1 << 18) >> depth))
    # the current shell in pieces, each element stored as its inverse permutation
    # in the narrowest unsigned type that holds a leaf index (uint8 at depth 8)
    n = 1 << depth
    shell = [np.arange(n, dtype=np.min_scalar_type(n - 1))[None]]
    sizes = [1]
    neighbor_rows = []
    # keys of the last two finished shells; older keys leave the index, since
    # the products of a shell lie in it or in the shells next to it
    older, old = [], _keys(shell[0])
    index = {old[0]: 0}
    count = 1
    for _ in range(radius):
        found, keys_found = [], []
        for inv in _row_chunks(shell, step):
            cand = _products(inv, blocks)
            keys = _keys(cand)
            ids = list(map(index.get, keys))
            unknown = [k for k, j in enumerate(ids) if j is None]
            fresh = []
            for k in unknown:  # in (element, generator) order, as ids are given
                key = keys[k]
                j = index.get(key)  # found earlier in this chunk
                if j is None:
                    j = index[key] = count
                    count += 1
                    keys_found.append(key)
                    fresh.append(k)
                ids[k] = j
            if count > MAX_BALL_ELEMENTS:
                raise ResourceLimitError(f"ball exceeds {MAX_BALL_ELEMENTS} elements")
            neighbor_rows.append(np.array(ids, dtype=np.int32).reshape(-1, len(GENERATORS)))
            found.append(cand[fresh])
        shell = found
        sizes.append(count)
        for key in older:
            del index[key]
        older, old = old, keys_found
    # neighbour rows of the outer shell: -1 where the product leaves the ball
    for inv in _row_chunks(shell, step):
        ids = [index.get(key, -1) for key in _keys(_products(inv, blocks))]
        neighbor_rows.append(np.array(ids, dtype=np.int32).reshape(-1, len(GENERATORS)))
    return BallEnumeration(w, depth, np.concatenate(neighbor_rows), sizes)


def enumerate_ball(w: OmegaWord, radius: int) -> BallEnumeration:
    """Enumerate the radius ball once, at the proven comparison depth.

    Two elements of the ball differ by a word of length at most 2 * radius;
    the neighbour rows of the outer shell compare words one letter longer.
    """
    _require_int_radii([radius])
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return _enumerate_at_depth(w, radius, comparison_depth(w, 2 * radius + 1))


@dataclass(frozen=True)
class GrowthReport:
    omega: str
    sizes: tuple[int, ...]
    depth: int


def ball_sizes(w: OmegaWord, radius: int) -> GrowthReport:
    """Growth values |B_0|, ..., |B_radius|, with the comparison depth.

    Values are exact: the depth is the one :func:`comparison_depth` proves
    from the section-length bound of the wreath recursion.
    """
    enum = enumerate_ball(w, radius)
    return GrowthReport(str(w), tuple(enum.sizes), enum.depth)
