"""Exception taxonomy shared by all modules."""


class JordankitError(Exception):
    """Base class for all library errors."""


class NonPrimeModulus(JordankitError):
    """Requested prime-field modulus is composite, < 2, or too large."""


class CharacteristicUnsupported(JordankitError):
    """The field characteristic rules out the requested operation."""


class AlgebraMismatch(JordankitError):
    """Elements from different algebras were mixed in one operation."""


class ArityMismatch(JordankitError):
    """Argument count does not match the monomial's degree."""


class EnumerationTooLarge(JordankitError):
    """An exhaustive enumeration would exceed one of the fixed size limits."""


class ModeUnsupported(JordankitError):
    """The requested mode is unavailable for this field or input."""


class NotIdempotent(JordankitError):
    """The supplied element is not a nontrivial idempotent."""


class DecompositionIncomplete(JordankitError):
    """Eigenspaces of the idempotent operator do not span the algebra."""


class CarrierInfinite(JordankitError):
    """The operation needs a finite carrier (or a matrix-backed map)."""


class CarrierSizeMismatch(JordankitError):
    """Bijections require domain and codomain carriers of equal size."""


class NoncommutativeDomain(JordankitError):
    """The operation is only defined over commutative algebras."""


class BudgetExceeded(JordankitError):
    """An exhaustive scan would exceed the fixed evaluation budget."""


class NotDerivation(JordankitError):
    """The supplied table fails the multiplicative derivation identity."""


class DerivationOfIdempotentNotHalf(JordankitError):
    """d(e) has a nonzero component outside the half eigenspace."""


class TorsionViolation(JordankitError):
    """The field violates a required k-torsion-freeness hypothesis."""


class PreconditionViolated(JordankitError):
    """A documented operation precondition does not hold."""


class FormatError(JordankitError):
    """A text input (scalar, algebra file, map file) is malformed."""


class ZeroDenominator(FormatError, ZeroDivisionError):
    """A rational scalar's text has a zero denominator.

    Also a ZeroDivisionError, so callers that catch the arithmetic error
    keep working.
    """


def shown(value) -> str:
    """repr(value) for an error line: past 50 characters, those and its length."""
    text = repr(value)
    return text if len(text) <= 50 else f"{text[:50]}... ({len(text)} characters)"
