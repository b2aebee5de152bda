"""Ball enumeration in the four-generator tree groups.

Group elements are compared through their action on a finite tree level.
Two distinct elements can collapse at a shallow level, so balls are
enumerated at increasing depth until the radius census is stable across two
consecutive depths; the result records the depth that achieved stability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import GENERATORS, generator_action
from .config import DEFAULT_CONFIG, ResourceLimitError, RunConfig
from .omega import OmegaWord

# the shallowest comparison depth tried
START_DEPTH = 4
# the most elements one ball enumeration may hold
MAX_BALL_ELEMENTS = 200_000


@dataclass
class BallEnumeration:
    """BFS ball of the group at a fixed comparison depth.

    ``perms[i]`` is the leaf permutation of element i (index 0 = identity),
    ``radius_of[i]`` its word length, ``neighbors[i][j]`` the index of
    generator j * element i, and ``sizes[r]`` the cumulative census of the
    radius-r ball.
    """

    depth: int
    radius: int
    perms: list[np.ndarray]
    radius_of: list[int]
    neighbors: list[list[int]]
    sizes: list[int]
    stable: bool


def _enumerate_at_depth(w: OmegaWord, radius: int, depth: int) -> BallEnumeration:
    gen_perms = [
        np.asarray(generator_action(g, w, depth).leaf_perm) for g in GENERATORS
    ]
    identity = np.arange(1 << depth)
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
    return BallEnumeration(depth, radius, perms, radius_of, neighbors, sizes, False)


def enumerate_ball(
    w: OmegaWord,
    radius: int,
    config: RunConfig = DEFAULT_CONFIG,
) -> BallEnumeration:
    """Enumerate the radius ball, raising the comparison depth to stability.

    Stability = identical census vectors at two consecutive depths.  The
    returned enumeration is the one at the deeper of the two.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    prev = _enumerate_at_depth(w, radius, START_DEPTH)
    for depth in range(START_DEPTH + 1, config.max_depth + 1):
        cur = _enumerate_at_depth(w, radius, depth)
        if cur.sizes == prev.sizes:
            cur.stable = True
            return cur
        prev = cur
    raise ResourceLimitError(
        f"ball census did not stabilize by depth {config.max_depth}"
    )


@dataclass(frozen=True)
class GrowthReport:
    omega: str
    sizes: tuple[int, ...]
    depth: int
    stable: bool


def ball_sizes(
    w: OmegaWord, radius: int, config: RunConfig = DEFAULT_CONFIG
) -> GrowthReport:
    """Growth values |B_0|, ..., |B_radius|, with the stabilization depth.

    Values are exact whenever the census stabilization is genuine; the depth
    is reported so the evidence can be reproduced or pushed further.
    """
    enum = enumerate_ball(w, radius, config)
    return GrowthReport(str(w), tuple(enum.sizes), enum.depth, enum.stable)
