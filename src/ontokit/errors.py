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
    """An action table lacks an entry for a tested (channel, point) pair."""


class BadOverlapError(OntokitError):
    """State overlap is outside the open interval (0, 1)."""


class VerificationFailedError(OntokitError):
    """A construction failed its built-in numerical verification."""


class EvenDimensionError(OntokitError):
    """Phase-point construction requires odd dimension."""


class UnrepresentableAlgebraError(OntokitError):
    """Channel endpoint is neither an odd matrix algebra nor commutative."""


class NotTracePreservingError(OntokitError):
    """Channel must be trace preserving for this operation."""


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
