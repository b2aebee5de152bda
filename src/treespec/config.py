"""Run configuration, resource caps, and shared error types."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, asdict


class ResourceLimitError(RuntimeError):
    """A computation exceeded a configured resource cap."""


class FormatError(ValueError):
    """A serialized document is malformed."""


ENV_MAX_VERTICES = "TREESPEC_MAX_VERTICES"


def _default_max_vertices() -> int:
    raw = os.environ.get(ENV_MAX_VERTICES)
    return int(raw) if raw else 1 << 12


@dataclass
class RunConfig:
    """Caps and tolerances shared across runs; echoed into artifacts."""

    max_vertices: int = field(default_factory=_default_max_vertices)
    max_depth: int = 24
    max_ball_elements: int = 200_000
    membership_tol: float = 1e-8

    def __post_init__(self):
        if self.max_vertices <= 0 or self.max_depth <= 0:
            raise ValueError("caps must be positive")
        if not 0 < self.membership_tol < 1:
            raise ValueError("tolerances must lie in (0, 1)")

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_CONFIG = RunConfig()
