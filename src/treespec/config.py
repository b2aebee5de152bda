"""Run configuration, resource caps, and shared error types."""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import ClassVar


class ResourceLimitError(RuntimeError):
    """A computation exceeded a configured resource cap."""


class FormatError(ValueError):
    """A serialized document is malformed."""


@dataclass
class RunConfig:
    """Caps shared across runs; echoed into artifacts."""

    max_vertices: int = 1 << 12
    max_depth: int = 24
    # distance within which an eigenvalue counts as inside a target set
    membership_tol: ClassVar[float] = 1e-8

    def __post_init__(self):
        if self.max_vertices <= 0 or self.max_depth <= 0:
            raise ValueError("caps must be positive")

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_CONFIG = RunConfig()
