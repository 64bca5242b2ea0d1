"""Exception types shared across the package."""

from __future__ import annotations


class CartierError(Exception):
    """Base class for all domain errors."""


class RingMismatchError(CartierError):
    """Operands live over different rings."""


class RankMismatchError(CartierError):
    """Vector or matrix rank does not match the ambient free module."""


class NotPrimeError(CartierError):
    """Characteristic is not a prime in the supported range."""


class LevelCapExceededError(CartierError):
    """A Frobenius level e above the configured cap was requested."""


class ExponentOverflowError(CartierError):
    """An exponent of 2^63 or more reached the Groebner engine, whose packed
    terms hold exponents up to 2^63 - 1."""


class StabilizationCapExceededError(CartierError):
    """A chain did not stabilize within the level cap, or a Groebner
    reduction ran past `groebner.MAX_REDUCTION_STEPS` steps."""


class NonDegenerateError(CartierError):
    """The chosen element is a zero divisor on the module, so positive
    filtration levels are undefined."""


class NotFRegularError(CartierError):
    """V-filtration machinery was asked to run on a non-F-regular input."""


class FptDivergenceError(CartierError):
    """The F-pure threshold has a denominator outside the candidate
    denominators, or the Frobenius window holds no jump."""


class ParseError(CartierError):
    """Polynomial or fraction syntax error; the message ends with the
    1-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} at column {column}")
