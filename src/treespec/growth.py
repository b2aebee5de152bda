"""Ball enumeration in the four-generator tree groups.

A ball of G_w is built by the wreath recursion from the ball of G_(shift w)
at about half its radius.  Writing g(iv) = (i xor s) g_i(v), an element is
held as its root swap bit s and the ids of its two sections g_0, g_1 in the
smaller ball.  The group acts faithfully on the tree, so this triple is the
element: a generator product is a gather on the smaller ball's neighbour
table, and duplicates are found on one int64 key per candidate, exactly and
with no comparison depth.  The new ids of a shell are handed out in
first-occurrence order over (element, generator), as in a plain BFS.

The recursion ends at a small radius, where elements are compared through
their action on a finite tree level.  The level is a comparison depth proven
by the section-length bound of the wreath recursion (:func:`comparison_depth`).
That ball grows one shell at a time in numpy: the frontier is held as the
inverse leaf permutations of its elements, on which a generator (a product of
branch swaps) acts by swapping column blocks, and each candidate is looked up
once in a dict keyed on the exact bytes of its even-leaf columns.

A ball keeps only its neighbour table and its census; leaf images (the leaf
permutations, a Cayley ball's level images) are derived from the BFS parents
that the neighbour table records, at the comparison depth of the ball.
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
# the wreath recursion ends at this radius: any base >= 2, the fixed point of
# R -> ceil((R + 1) / 2), ends it, and 4 timed fastest at radii 11 and 18
_BASE_RADIUS = 4


@dataclass
class BallEnumeration:
    """BFS ball of the group.

    Elements are numbered in BFS order (index 0 = identity; each shell in
    the order its elements are first reached from the one before, element by
    element and generator by generator).  The ball holds two tables:

    - ``neighbors``: (N, 4) int32 array; ``neighbors[i, j]`` is the index of
      generator j * element i, or -1 on the outer shell where that product
      lies outside the ball.
    - ``sizes``: list of ints, ``sizes[r]`` the census of the radius-r ball,
      so element i has word length r where ``sizes[r - 1] <= i < sizes[r]``.

    ``stable`` is always True: elements are told apart exactly, by the
    faithful wreath embedding g -> (s; g_0, g_1) down to a base ball
    enumerated at its comparison depth, so the census is proven.  ``depth``
    is the comparison depth of the ball and its outer shell, at which their
    distinct elements act differently; ``perms`` are read there.
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


def _wreath_ball(w: OmegaWord, radius: int) -> BallEnumeration:
    """The radius ball of G_w built from the ball of G_(shift w) at radius
    ceil((radius + 1) / 2), each element held as (s; i0, i1): its root swap
    bit and the ids of its two sections in that smaller ball.

    With g(iv) = (i xor s) g_i(v), a flips s, and x in {b, c, d} maps
    (s; g0, g1) to (s; x_s g0, x_(1 xor s) g1), where x_0 is a if x is active
    at w_1 and e otherwise, and x_1 is x over shift w.  A product of word
    length at most radius + 1 has sections at most ceil((radius + 1) / 2)
    long, so every section it reaches lies in the smaller ball.  The tree
    action is faithful, so the triple is injective and equal keys are equal
    elements, exact by induction down to the base case.
    """
    depth = comparison_depth(w, 2 * radius + 1)
    if radius <= _BASE_RADIUS:
        return _enumerate_at_depth(w, radius, depth)
    small = _wreath_ball(w.shift(), (radius + 2) // 2)
    n = small.sizes[-1]
    # the smaller ball's products by a, b, c, d, then by e in column e
    e = len(GENERATORS)
    table = np.column_stack([small.neighbors, np.arange(n, dtype=np.int32)]).ravel()
    # per generator: whether it flips s, and the columns of x_0 and x_1
    flip = np.array([g == "a" for g in GENERATORS], dtype=np.int64)
    x0 = np.array([0 if w.symbol(1) in ACTIVE.get(g, ()) else e for g in GENERATORS])
    x1 = np.array([j if g in ACTIVE else e for j, g in enumerate(GENERATORS)])
    # the current shell as (s, i0, i1); the sorted keys and ids of this shell
    # and the one before: a generator moves an element by at most one shell
    s, i0, i1 = (np.zeros(1, np.int64) for _ in range(3))
    before = (np.empty(0, np.int64), np.empty(0, np.int64))
    current = (np.zeros(1, np.int64), np.zeros(1, np.int64))
    sizes = [1]
    neighbor_rows = []
    for shell in range(radius + 1):
        odd = s[:, None] == 1
        j0 = table[i0[:, None] * (e + 1) + np.where(odd, x1, x0)]
        j1 = table[i1[:, None] * (e + 1) + np.where(odd, x0, x1)]
        if (j0 < 0).any() or (j1 < 0).any():
            raise RuntimeError(
                f"a section of the radius-{radius} ball of {w} is not in its smaller ball"
            )
        t = s[:, None] ^ flip
        keys, first, inverse = np.unique(
            ((t * n + j0) * n + j1).ravel(), return_index=True, return_inverse=True
        )
        known = np.concatenate([before[0], current[0]])
        order = np.argsort(known, kind="stable")  # two sorted runs: a merge
        known, known_ids = known[order], np.concatenate([before[1], current[1]])[order]
        at = np.minimum(np.searchsorted(known, keys), len(known) - 1)
        hit = known[at] == keys
        ids = np.where(hit, known_ids[at], -1)
        if shell < radius:
            # new ids in first-occurrence order over (element, generator)
            miss = np.flatnonzero(~hit)
            miss = miss[np.argsort(first[miss])]
            ids[miss] = np.arange(sizes[-1], sizes[-1] + len(miss))
            sizes.append(sizes[-1] + len(miss))
            if sizes[-1] > MAX_BALL_ELEMENTS:
                raise ResourceLimitError(f"ball exceeds {MAX_BALL_ELEMENTS} elements")
            born = first[miss]  # the new elements, in id order
            s, i0, i1 = t.ravel()[born], j0.ravel()[born], j1.ravel()[born]
            fresh = np.sort(miss)
            before, current = current, (keys[fresh], ids[fresh])
        ids = ids[inverse.ravel()]
        neighbor_rows.append(ids.astype(np.int32).reshape(-1, len(GENERATORS)))
    return BallEnumeration(w, depth, np.concatenate(neighbor_rows), sizes)


def enumerate_ball(w: OmegaWord, radius: int) -> BallEnumeration:
    """Enumerate the radius ball once, by the wreath recursion.

    Its ``depth`` is the comparison depth of two elements of the ball, which
    differ by a word of length at most 2 * radius, or of an element of the
    ball and a product one letter outside it: ``perms`` are read there.
    """
    _require_int_radii([radius])
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return _wreath_ball(w, radius)


@dataclass(frozen=True)
class GrowthReport:
    omega: str
    sizes: tuple[int, ...]
    depth: int


def ball_sizes(w: OmegaWord, radius: int) -> GrowthReport:
    """Growth values |B_0|, ..., |B_radius|, with the comparison depth.

    Values are exact: the ball is enumerated by the faithful wreath
    recursion, and ``depth`` is the one :func:`comparison_depth` proves for it.
    """
    enum = enumerate_ball(w, radius)
    return GrowthReport(str(w), tuple(enum.sizes), enum.depth)
