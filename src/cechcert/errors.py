"""Exception types shared across the package."""


class DomainError(ValueError):
    """A point lies outside the mathematical domain of an operation."""


class ResourceError(RuntimeError):
    """A scan would exceed its configured node budget."""


class SamplingError(RuntimeError):
    """Rejection sampling failed to find an in-region point within the retry budget."""


class ResolutionError(RuntimeError):
    """The grid and an analytic labeler disagree about an intersection."""


class VerificationError(RuntimeError):
    """An exact result failed its own re-check: a defect, not a failed certificate."""


class ShapeError(ValueError):
    """An expression does not have the shape an operation requires."""


class BranchError(ValueError):
    """A logarithm branch choice failed its continuity validation."""


class NotACocycleError(ValueError):
    """A cochain that was required to be a cocycle is not one."""


class ChartError(ValueError):
    """A sampled point violates the injectivity chart of a map."""


class GlueError(ValueError):
    """The inputs to a gluing operation are incompatible."""
