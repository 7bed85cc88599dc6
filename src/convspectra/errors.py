"""Exception hierarchy for convspectra.

Every error raised by the package derives from ConvspectraError so callers
(and the CLI) can distinguish tool failures from genuine bugs.
"""


class ConvspectraError(Exception):
    """Base class for all convspectra errors."""


class SingularMatrix(ConvspectraError):
    """Matrix inversion was requested for a matrix with determinant zero."""


class IndexOutOfRange(ConvspectraError):
    """A level index k or a range (p, q] fell outside the sequence."""


class DimensionMismatch(ConvspectraError):
    """Operands carry incompatible ambient dimensions."""


class DimensionTooLarge(ConvspectraError):
    """A 2^d enumeration would exceed the configured safety cap."""


class EmptySet(ConvspectraError):
    """A digit set or atom list that must be nonempty was empty."""


class TruncationTooLarge(ConvspectraError):
    """Projected atom count of a truncation exceeds the configured cap."""


class GridTooLarge(ConvspectraError):
    """A requested evaluation grid exceeds the configured cap."""


class WorkingSetTooLarge(ConvspectraError):
    """A dense kernel's tables and tile would exceed the byte budget."""


class SizeMismatch(ConvspectraError):
    """Paired collections must have equal cardinality."""


class CongruentDigits(ConvspectraError):
    """Two digits are congruent modulo R·Z^d; reduction would merge them."""


class NonUniformWeights(ConvspectraError):
    """The operation requires a uniform (equal-weight) measure."""


class BoundViolation(ConvspectraError):
    """A perturbation consumed the entire positivity margin."""


class TripleInvalid(ConvspectraError):
    """The (R, B, L) data fails the Hadamard unitarity check."""


class MilestoneGap(ConvspectraError):
    """Requested milestones are not strictly increasing or exceed the sequence."""


class ParseError(ConvspectraError):
    """A config document is not syntactically valid."""


class ValidationError(ConvspectraError):
    """A config document is syntactically valid but semantically wrong."""
