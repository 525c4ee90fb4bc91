"""Certificates for holomorphic line bundles presented by transition data
over explicit covers: component-resolved nerve cohomology, gluing, and
non-extension obstructions, with a scenario-driven CLI."""

from .errors import (
    BranchError,
    ChartError,
    DomainError,
    GlueError,
    NotACocycleError,
    ResolutionError,
    ResourceError,
    SamplingError,
    ShapeError,
    VerificationError,
)

__version__ = "0.1.0"

__all__ = [
    "BranchError",
    "ChartError",
    "DomainError",
    "GlueError",
    "NotACocycleError",
    "ResolutionError",
    "ResourceError",
    "SamplingError",
    "ShapeError",
    "VerificationError",
    "__version__",
]
