"""Run configuration, resource caps, and shared error types."""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import ClassVar, Sequence

import numpy as np

# the types an edge id, a radius or a level may hold
_INT = (int, np.integer)


class ResourceLimitError(RuntimeError):
    """A computation exceeded a configured resource cap."""


class FormatError(ValueError):
    """A serialized document is malformed."""


def _require_int(what: str, k) -> None:
    """ValueError names ``k`` when it is not an int; numpy ints are."""
    if not isinstance(k, _INT):
        raise ValueError(f"{what} {k!r} is not an int")


def _require_int_radii(radii: Sequence) -> None:
    """ValueError names the first radius that is not an int."""
    for k in radii:
        _require_int("radius", k)


@dataclass(frozen=True)
class RunConfig:
    """Caps shared across runs; echoed into artifacts.  Frozen, so a cap is
    checked once, when the config is built."""

    max_vertices: int = 1 << 12
    # distance within which an eigenvalue counts as inside a target set
    membership_tol: ClassVar[float] = 1e-8

    def __post_init__(self):
        _require_int("max_vertices", self.max_vertices)
        if self.max_vertices <= 0:
            raise ValueError("max_vertices must be positive")

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_CONFIG = RunConfig()
