"""Exact rational scalars: parsing and "p/q" text, signed integer powers,
reduction modulo a prime, and exact comparison against known Fractions.

`fractions.Fraction` is the value type throughout the package. It already
maintains the invariants everything else relies on: arbitrary-precision
integers, positive denominator, and numerator/denominator kept coprime.

`fraction` builds one from ints with one gcd: `_filled`, the one writer, sets
the slots `_numerator` and `_denominator` of a bare instance, skipping the
pure-Python `Fraction.__new__`, twice the cost. Hot readers read those slots,
not the properties; such reads stay in this module and `cli._json_side`.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

__all__ = [
    "NonreducibleDenominatorError",
    "SingularParameterError",
    "decided",
    "ensure_nonsingular",
    "format_rational",
    "fraction",
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

    `args` is (value, modulus), which `value` and `modulus` read. The class
    has no `__init__` of its own, so a raise costs what a bare exception's
    does, and the message is built by `__str__`, so a caller that catches the
    error without printing it never renders a value that may be large.
    """

    value = property(lambda self: self.args[0], doc="the rational with no residue")
    modulus = property(lambda self: self.args[1], doc="the prime dividing its denominator")

    def __str__(self) -> str:
        return (
            f"{format_rational(self.value)} has no residue mod {self.modulus}: "
            f"denominator {self.value.denominator} is divisible by {self.modulus}"
        )


def _filled(num: int, den: int) -> Fraction:
    """A Fraction holding num/den as they are: coprime ints, den > 0."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = num, den
    return value


def fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for ints num and den > 0, built with one gcd."""
    common = math.gcd(num, den)
    return _filled(num // common, den // common)


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9][0-9]*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a plain integer literal; denominator must be positive."""
    if not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text.strip())


def format_rational(value: Fraction | int) -> str:
    """Render as "p/q", omitting "/q" when the denominator is 1."""
    # an exact Fraction skips the isinstance call, which costs more than the type test
    if type(value) is not Fraction and not isinstance(value, Fraction):
        value = Fraction(value)
    if value._denominator == 1:
        return str(value._numerator)
    return f"{value._numerator}/{value._denominator}"


def pow_rat(base: Fraction | int, k: int) -> Fraction:
    """base**k for any integer k, with base**0 == 1.

    Zero base rejects negative exponents explicitly instead of surfacing a
    bare division error from deep inside a summation. The powers of a reduced
    base are coprime: the result is built with no gcd.
    """
    # an exact Fraction is used as it is: it is immutable, and a copy would
    # cost a construction
    if type(base) is not Fraction:
        base = Fraction(base)
    num, den = base._numerator, base._denominator
    if k < 0:
        if not num:
            raise ZeroDivisionError("cannot raise 0 to a negative power")
        num, den, k = (-den, -num, -k) if num < 0 else (den, num, -k)
    return _filled(num**k, den**k)


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


# a scan reduces many values by each of a few primes; typed, as 3.0 is no int
_modulus_is_prime = functools.lru_cache(maxsize=256, typed=True)(is_prime)


def mod_reduce(value: Fraction | int, p: int) -> int:
    """Reduce num/den to its residue (num * den^-1) mod p, in 0..p-1.

    Raises NonreducibleDenominatorError when p divides the denominator; the
    caller decides what that means (for identity audits it marks the point
    UNDEFINED rather than passing or failing). A modulus that is not prime
    raises ValueError.
    """
    if not _modulus_is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if type(value) is not Fraction and not isinstance(value, Fraction):
        value = Fraction(value)
    residue = value._denominator % p
    if not residue:
        raise NonreducibleDenominatorError(value, p)
    return value._numerator * pow(residue, -1, p) % p


def decided(known: list[Fraction], nums, den: int) -> list[Fraction]:
    """The values nums[n] / den, each decided against known[n] by
    cross-multiplying: an equal value is the very Fraction known[n], and only
    an unequal one, a FAILS witness, is a new Fraction. nums are ints (one
    integer == each, no Fraction compared) or, under a (m!)^-1 prefactor,
    Fractions, over an int den > 0; ValueError if nums and known differ in length."""
    return [
        x if x._numerator * den == num * x._denominator
        else fraction(num, den) if type(num) is int else Fraction(num, den)
        for x, num in zip(known, nums, strict=True)
    ]
