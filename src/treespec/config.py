"""Run configuration, resource caps, and shared error types."""

from __future__ import annotations

from dataclasses import dataclass, asdict


class ResourceLimitError(RuntimeError):
    """A computation exceeded a configured resource cap."""


class FormatError(ValueError):
    """A serialized document is malformed."""


@dataclass
class RunConfig:
    """Caps and tolerances shared across runs; echoed into artifacts."""

    max_vertices: int = 1 << 12
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
