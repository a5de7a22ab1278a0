"""Exception hierarchy shared across the package."""


class SupercongError(Exception):
    """Base class for all package-specific errors."""


class BadParameter(SupercongError):
    """An argument violates a mathematical precondition (e.g. p divides a denominator)."""


class DivisionByZero(SupercongError):
    """Inversion of the exact p-adic zero."""


class PrecisionExhausted(SupercongError):
    """Cancellation left no known digits and the value is not provably zero."""


class InsufficientPrecision(SupercongError):
    """A congruence test was requested beyond the operands' absolute precision.

    This always signals a precision-planning bug in the caller, never a
    mathematical failure of the congruence under test.
    """


class UnknownCheck(SupercongError):
    """Check id not present in the registry."""


class PrimeTooSmall(SupercongError):
    """The prime is below the catalog's minimum, checks.MIN_PRIME."""
