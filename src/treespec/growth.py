"""Ball enumeration in the four-generator tree groups.

Group elements are compared through their action on a finite tree level.
The level is a comparison depth proven by the section-length bound of the
wreath recursion (:func:`comparison_depth`), so every census is exact.
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

    ``perms[i]`` is the leaf permutation of element i (index 0 = identity),
    ``radius_of[i]`` its word length, ``neighbors[i][j]`` the index of
    generator j * element i, and ``sizes[r]`` the cumulative census of the
    radius-r ball.  ``stable`` is always True: distinct elements of the
    ball and its outer shell act differently at ``depth``, so the census is
    proven.
    """

    depth: int
    radius: int
    perms: list[np.ndarray]
    radius_of: list[int]
    neighbors: list[list[int]]
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


def _enumerate_at_depth(w: OmegaWord, radius: int, depth: int) -> BallEnumeration:
    # the narrowest unsigned type that holds a leaf index (uint8 at depth 8)
    dtype = np.min_scalar_type((1 << depth) - 1)
    gen_perms = [generator_action(g, w, depth).perm.astype(dtype) for g in GENERATORS]
    identity = np.arange(1 << depth, dtype=dtype)
    index = {identity.tobytes(): 0}
    perms = [identity]
    radius_of = [0]
    neighbors: list[list[int]] = [[]]
    sizes = [1]
    frontier = [0]
    for r in range(1, radius + 1):
        new_frontier = []
        for i in frontier:
            for gp in gen_perms:
                img = gp[perms[i]]
                key = img.tobytes()
                j = index.get(key)
                if j is None:
                    j = len(perms)
                    index[key] = j
                    perms.append(img)
                    radius_of.append(r)
                    neighbors.append([])
                    new_frontier.append(j)
                    if j + 1 > MAX_BALL_ELEMENTS:
                        raise ResourceLimitError(
                            f"ball exceeds {MAX_BALL_ELEMENTS} elements"
                        )
                neighbors[i].append(j)
        frontier = new_frontier
        sizes.append(len(perms))
    # neighbor rows for the outermost shell (stay within the ball)
    for i in frontier:
        for gp in gen_perms:
            j = index.get(gp[perms[i]].tobytes())
            neighbors[i].append(-1 if j is None else j)
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
