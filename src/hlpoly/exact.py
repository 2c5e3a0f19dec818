"""Exact rational scalars: parsing and "p/q" text, signed integer powers,
and reduction modulo a prime.

`fractions.Fraction` is the value type throughout the package. It already
maintains the invariants everything else relies on: arbitrary-precision
integers, positive denominator, and numerator/denominator kept coprime.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "NonreducibleDenominatorError",
    "SingularParameterError",
    "ensure_nonsingular",
    "format_rational",
    "is_prime",
    "mod_reduce",
    "parse_rational",
    "pow_rat",
    "singular_index",
]


class SingularParameterError(ValueError):
    """alpha*m + a vanishes at some index m of the requested range."""


class NonreducibleDenominatorError(ArithmeticError):
    """A rational has no residue mod p because p divides its denominator.

    This is a first-class outcome, not a bug: a congruence probed at such a
    value is simply not evaluable there, and callers report that fact.
    """

    def __init__(self, value: Fraction, modulus: int):
        self.value = value
        self.modulus = modulus
        super().__init__(
            f"{format_rational(value)} has no residue mod {modulus}: "
            f"denominator {value.denominator} is divisible by {modulus}"
        )


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9][0-9]*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a plain integer literal; denominator must be positive."""
    if not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text.strip())


def format_rational(value: Fraction | int) -> str:
    """Render as "p/q", omitting "/q" when the denominator is 1."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def pow_rat(base: Fraction | int, k: int) -> Fraction:
    """base**k for any integer k, with base**0 == 1.

    Zero base rejects negative exponents explicitly instead of surfacing a
    bare division error from deep inside a summation.
    """
    base = Fraction(base)
    if k < 0 and base == 0:
        raise ZeroDivisionError("cannot raise 0 to a negative power")
    return base**k


def singular_index(alpha: Fraction, a: Fraction, m_max: int) -> int | None:
    """Smallest m in 0..m_max with alpha*m + a == 0, or None."""
    if not alpha:
        return 0 if not a and m_max >= 0 else None
    root = -a / alpha
    if root.denominator == 1 and 0 <= root <= m_max:
        return int(root)
    return None


def ensure_nonsingular(alpha: Fraction, a: Fraction, m_max: int) -> None:
    """Raise SingularParameterError if alpha*m + a vanishes for an m in 0..m_max."""
    m = singular_index(alpha, a, m_max)
    if m is not None:
        raise SingularParameterError(
            f"alpha*m + a vanishes at m = {m} for "
            f"alpha = {format_rational(alpha)}, a = {format_rational(a)}"
        )


def is_prime(n: int) -> bool:
    """Deterministic trial division; intended for desk-scale moduli (< 2**16)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def mod_reduce(value: Fraction | int, p: int) -> int:
    """Reduce num/den to its residue (num * den^-1) mod p, in 0..p-1.

    Raises NonreducibleDenominatorError when p divides the denominator; the
    caller decides what that means (for identity audits it marks the point
    UNDEFINED rather than passing or failing).
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    value = Fraction(value)
    if value.denominator % p == 0:
        raise NonreducibleDenominatorError(value, p)
    inv = pow(value.denominator % p, -1, p)
    return (value.numerator * inv) % p
