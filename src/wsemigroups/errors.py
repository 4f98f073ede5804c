"""Shared exception types.

Everything raised on bad input derives from ValueError so callers can
catch one base class; the CLI maps all of these to exit code 2.  A
value of the wrong type is not coerced: a float, a string or a bool where
the constructors take an integer raises TypeError (from strict_index), as
RationalGF and expand do for their arguments.
"""

import operator


def strict_index(x):
    """operator.index(x), refusing a bool as well."""
    if type(x) is bool:
        raise TypeError(f"expected an integer, got {x!r}")
    return operator.index(x)


class ArityMismatch(ValueError):
    """Operands or windows do not agree on the number of variables."""


class InvalidSemigroup(ValueError):
    """Input data cannot define a semigroup of the requested kind."""


class AxiomViolation(InvalidSemigroup):
    """A semigroup axiom fails; carries explicit witnesses."""

    def __init__(self, message, witnesses=()):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


class NotSymmetric(ValueError):
    """Operation requires a symmetric semigroup."""


class WindowTooSmall(ValueError):
    """Verification window leaves no room for the 2-cell interior margin."""


class UnknownCheck(ValueError):
    """Verification check id is not recognised."""


class InputError(ValueError):
    """Malformed JSON input or an input incompatible with the verb."""
