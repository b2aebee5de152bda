"""Ball enumeration in the four-generator tree groups.

Group elements are compared through their action on a finite tree level.
The level is a comparison depth proven by the section-length bound of the
wreath recursion (:func:`comparison_depth`), so every census is exact.

A ball grows one shell at a time in numpy.  The frontier is held as the
inverse leaf permutations of its elements, on which a generator (a product
of branch swaps) acts by swapping column blocks.  Each candidate is looked
up once in a dict keyed on the exact bytes of its even-leaf columns, which
holds only the last three shells: a generator moves an element by at most
one shell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .actions import GENERATORS, generator_action
from .config import ResourceLimitError
from .omega import ACTIVE, OmegaWord

# the most elements one ball enumeration may hold
MAX_BALL_ELEMENTS = 200_000


@dataclass
class BallEnumeration:
    """BFS ball of the group at a fixed comparison depth.

    Elements are numbered in BFS order (index 0 = identity; each shell in
    the order its elements are first reached from the one before, element by
    element and generator by generator).

    - ``perms``: list of the leaf permutations, ``perms[i]`` that of element
      i, as read-only row views of one array per shell, in the narrowest
      unsigned dtype that holds a leaf (uint8 up to depth 8).
    - ``radius_of``: list of ints, the word length of each element.
    - ``neighbors``: (N, 4) int32 array; ``neighbors[i, j]`` is the index of
      generator j * element i, or -1 on the outer shell where that product
      lies outside the ball.
    - ``sizes``: list of ints, ``sizes[r]`` the census of the radius-r ball.

    ``stable`` is always True: distinct elements of the ball and its outer
    shell act differently at ``depth``, so the census is proven.
    """

    depth: int
    radius: int
    perms: list[np.ndarray]
    radius_of: list[int]
    neighbors: np.ndarray
    sizes: list[int]
    stable: ClassVar[bool] = True


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


def _forward(pieces: list[np.ndarray], n: int, dtype, step: int) -> np.ndarray:
    """The rows of the stacked ``pieces`` inverted, as one read-only array.
    Where x^-1 sends leaf 2i to e, x sends e to 2i and e ^ 1 to 2i + 1, so
    the even columns of x come from one scatter of the even columns of x^-1."""
    fwd = np.empty((sum(map(len, pieces)), n), dtype)
    half = n // 2
    leaves = np.arange(0, n, 2, dtype=dtype)
    lo = 0
    for inv in _row_chunks(pieces, step):
        src = inv[:, ::2]
        even = np.empty(src.shape, dtype)
        even.reshape(-1)[(src >> 1) + np.arange(0, src.size, half)[:, None]] = leaves | (src & 1)
        fwd[lo : lo + len(inv), ::2] = even
        fwd[lo : lo + len(inv), 1::2] = even ^ 1
        lo += len(inv)
    fwd.flags.writeable = False
    return fwd


def _enumerate_at_depth(w: OmegaWord, radius: int, depth: int) -> BallEnumeration:
    n = 1 << depth
    # the narrowest unsigned type that holds a leaf index (uint8 at depth 8)
    dtype = np.min_scalar_type(n - 1)
    blocks = [_column_blocks(generator_action(g, w, depth).perm) for g in GENERATORS]
    # rows per numpy step: 1024, and at most 2^18 leaves, so that the
    # temporaries of a step stay a few MiB at any depth
    step = max(1, min(1024, (1 << 18) >> depth))
    # the current shell in pieces, each element stored as its inverse permutation
    shell = [np.arange(n, dtype=dtype)[None]]
    perms = list(_forward(shell, n, dtype, step))
    radius_of = [0]
    sizes = [1]
    neighbor_rows = []
    # keys of the last two finished shells; older keys leave the index, since
    # the products of a shell lie in it or in the shells next to it
    older, old = [], _keys(shell[0])
    index = {old[0]: 0}
    count = 1
    for r in range(1, radius + 1):
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
        perms.extend(_forward(shell, n, dtype, step))
        radius_of.extend([r] * len(keys_found))
        sizes.append(count)
        for key in older:
            del index[key]
        older, old = old, keys_found
    # neighbour rows of the outer shell: -1 where the product leaves the ball
    for inv in _row_chunks(shell, step):
        ids = [index.get(key, -1) for key in _keys(_products(inv, blocks))]
        neighbor_rows.append(np.array(ids, dtype=np.int32).reshape(-1, len(GENERATORS)))
    neighbors = np.concatenate(neighbor_rows)
    return BallEnumeration(depth, radius, perms, radius_of, neighbors, sizes)


def enumerate_ball(w: OmegaWord, radius: int) -> BallEnumeration:
    """Enumerate the radius ball once, at the proven comparison depth.

    Two elements of the ball differ by a word of length at most 2 * radius;
    the neighbour rows of the outer shell compare words one letter longer.
    """
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
