"""Exception types shared across the package."""


class DomainError(ValueError):
    """A point lies outside the mathematical domain of an operation."""


class ResourceError(RuntimeError):
    """A computation would pass a size limit of the program."""


class SamplingError(RuntimeError):
    """Rejection sampling failed to find an in-region point within the retry budget."""


class ResolutionError(RuntimeError):
    """Cover or component data is inconsistent with the regions it describes."""


class VerificationError(RuntimeError):
    """An exact result failed its own re-check: a defect, not a failed certificate."""


class ShapeError(ValueError):
    """An expression does not have the shape an operation requires."""


class NotACocycleError(ValueError):
    """A cochain that was required to be a cocycle is not one."""


class ChartError(ValueError):
    """A preimage set leaves a chart's domain, or a sampled point its target set."""


class GlueError(ValueError):
    """The inputs to a gluing operation are incompatible."""
