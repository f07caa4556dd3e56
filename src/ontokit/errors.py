"""Exception hierarchy shared across the toolkit."""


class OntokitError(Exception):
    """Base class for all toolkit errors."""


class DimMismatchError(OntokitError):
    """Operands have incompatible dimensions."""


class NotHermitianError(OntokitError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class SpaceMismatchError(OntokitError):
    """Kernel or distribution endpoints disagree."""


class WrongSpaceError(OntokitError):
    """Operation requires the distinguished two-point space."""


class SignedUnsupportedError(OntokitError):
    """Operation is only defined for nonnegative (probability) weights."""


class MissingMorphismError(OntokitError):
    """A named morphism is absent from a functor fragment."""


class MissingActionError(OntokitError):
    """A channel tested for equivariance has no point permutation."""


class IndexOutOfRangeError(OntokitError, IndexError):
    """An index names no element: an outcome past the basis, a target past
    the ensemble, a residue outside Z_n.  It is also an ``IndexError``."""


class BadOverlapError(OntokitError):
    """State overlap is outside the open interval (0, 1)."""


class VerificationFailedError(OntokitError, ValueError):
    """A value failed one of the library's checks.  Every fault the library
    raises is an ``OntokitError``; a failed check is this one, which is also
    a ``ValueError``, and a fault in a parsed document a ``SchemaError``.  A
    check over rows gives the index of the first that failed as ``row``, and
    the name its caller gave the array as ``part``."""

    def __init__(self, message: str, row: int | None = None, part: str | None = None):
        super().__init__(message)
        self.row, self.part = row, part


class EvenDimensionError(OntokitError):
    """Phase-point construction requires odd dimension."""


class UnrepresentableAlgebraError(OntokitError):
    """Channel endpoint is neither an odd matrix algebra nor commutative."""


class TooLargeError(OntokitError):
    """Input exceeds the enforced desk-scale size bound."""


class InvalidFunctionalError(OntokitError):
    """Decoherence functional fails one of its defining properties."""


class SchemaError(OntokitError):
    """A JSON document does not match the documented schema."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")
