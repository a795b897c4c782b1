"""Exception types shared across the library."""


class ChisiniError(Exception):
    """Base class for all library errors."""


class SpaceMismatchError(ChisiniError):
    """Two objects built on different finite spaces were combined."""


class RegularityViolation(ChisiniError):
    """A state-dependent utility fails regularity (normalization at zero,
    strict monotonicity or continuity) at a specific outcome/coordinate."""

    def __init__(self, outcome, coordinate, message):
        self.outcome = outcome
        self.coordinate = coordinate
        super().__init__(f"outcome {outcome!r} at x={coordinate}: {message}")


class NotMeasurable(ChisiniError):
    """An act varies inside an atom of the partition it should be
    measurable against."""


class EventNotInAlgebra(ChisiniError):
    """An event is not a union of atoms of the given partition."""


class ComplexityCapExceeded(ChisiniError):
    """An exhaustive enumeration would exceed the configured cap."""


class BisectionBracketFailure(ChisiniError):
    """A monotone bracket could not be established; usually signals a
    strict-monotonicity violation of the functional being probed."""


class NumericRangeError(ChisiniError, ArithmeticError):
    """A number left the float range: a utility curve overflowed, or a
    value saturated at the edge of a curve's image, so that no finite
    inverse exists in floating point."""


class AdditivityCheckFailed(ChisiniError):
    """A functional flagged additive failed the additivity spot check."""


class PropertyFlagMissing(ChisiniError):
    """A set-functional oracle lacks a declared property required by the
    requested construction."""


class OutOfGridRange(ChisiniError):
    """An evaluation point lies outside the dyadic grid's bound."""


class ContinuityViolation(ChisiniError):
    """A jump was detected on a positive-weight outcome, contradicting
    pointwise continuity of the represented functional."""

    def __init__(self, outcome, location, size):
        self.outcome = outcome
        self.location = location
        self.size = size
        super().__init__(
            f"jump of size {size:g} at x={location:g} on outcome {outcome!r} "
            f"with positive weight; the source functional cannot be pointwise "
            f"continuous"
        )


class PreconditionFailure(ChisiniError):
    """An operation's stated precondition does not hold for the inputs."""


class ModelFileError(ChisiniError):
    """A model file failed schema validation or name resolution."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")
