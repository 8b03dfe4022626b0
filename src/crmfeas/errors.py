"""Exception types raised across the library."""


class FeasibilityError(Exception):
    """Base class for all crmfeas errors."""


class DimensionMismatch(FeasibilityError):
    """A point or matrix has the wrong dimension for the operation."""


class DegenerateConfiguration(FeasibilityError):
    """No point equidistant to the given points exists in their affine hull."""


class NotInAffine(FeasibilityError):
    """Iterate violates the required affine-subspace membership."""


class NotDiagonal(FeasibilityError):
    """Blocks of a product-space point disagree beyond tolerance."""


class BadDimension(FeasibilityError):
    """Instance generator called with an unsupported dimension."""


class ExhaustedRejection(FeasibilityError):
    """Rejection sampling failed to produce an acceptable point."""


class ParseError(FeasibilityError):
    """A problem or result file is malformed."""


class SchemaVersionMismatch(FeasibilityError):
    """A problem file declares an unsupported schema version."""


class EmptyInput(FeasibilityError):
    """An aggregate operation received no data."""
