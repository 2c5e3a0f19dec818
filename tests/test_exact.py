from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hlpoly.exact import (
    NonreducibleDenominatorError,
    format_rational,
    is_prime,
    mod_reduce,
    parse_rational,
    pow_rat,
    singular_index,
)

rationals = st.builds(
    Fraction, st.integers(-40, 40), st.integers(1, 40)
)
nonzero_rationals = rationals.filter(lambda q: q != 0)


# -- rational arithmetic contract (Fraction is the value type) --------------


def test_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(2, 3) * Fraction(3, 2) == 1
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


def test_values_stored_normalized():
    q = Fraction(6, -4)
    assert (q.numerator, q.denominator) == (-3, 2)
    assert Fraction(0).denominator == 1


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# -- pow_rat -----------------------------------------------------------------


def test_pow_rat_examples():
    assert pow_rat(Fraction(2, 3), -2) == Fraction(9, 4)
    assert pow_rat(Fraction(5, 7), 0) == 1
    assert pow_rat(Fraction(1, 2), 3) == Fraction(1, 8)
    assert pow_rat(0, 0) == 1


def test_pow_rat_zero_negative_exponent():
    with pytest.raises(ZeroDivisionError):
        pow_rat(Fraction(0), -1)


@given(nonzero_rationals, st.integers(-8, 8))
def test_pow_rat_inverse_pairs(x, k):
    assert pow_rat(x, k) * pow_rat(x, -k) == 1


# -- parsing and rendering ---------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [("1/2", Fraction(1, 2)), ("-3/4", Fraction(-3, 4)), ("7", 7), ("+2", 2)],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["1/0", "1/-2", "a", "1.5", "2/", "/3", ""])
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_format_rational():
    assert format_rational(Fraction(-1, 6)) == "-1/6"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(0) == "0"
    # a Fraction is rendered as it is; an int or a bool goes through Fraction
    assert format_rational(-12) == "-12"
    assert format_rational(True) == "1"
    assert format_rational(False) == "0"


@given(st.one_of(rationals, st.integers(-(10**30), 10**30), st.booleans()))
def test_format_parse_round_trip(value):
    text = format_rational(value)
    assert parse_rational(text) == value
    assert text == format_rational(Fraction(value))


@given(rationals, rationals, st.integers(-1, 30))
def test_singular_index_is_the_first_vanishing_m(alpha, a, m_max):
    scan = next((m for m in range(m_max + 1) if alpha * m + a == 0), None)
    assert singular_index(alpha, a, m_max) == scan


# -- primality and modular reduction ----------------------------------------


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(65521)  # largest prime below 2**16
    assert not is_prime(65535)


def test_mod_reduce_examples():
    assert mod_reduce(Fraction(1, 4), 3) == 1
    assert mod_reduce(0, 5) == 0
    assert mod_reduce(Fraction(-1, 2), 7) == 3  # 2 * 3 = -1 (mod 7)
    with pytest.raises(NonreducibleDenominatorError):
        mod_reduce(Fraction(22, 105), 3)


def test_mod_reduce_requires_prime():
    with pytest.raises(ValueError):
        mod_reduce(Fraction(1, 2), 4)


@given(rationals, rationals, st.sampled_from([3, 5, 7, 11, 13]))
def test_mod_reduce_additive(a, b, p):
    try:
        ra, rb, rsum = mod_reduce(a, p), mod_reduce(b, p), mod_reduce(a + b, p)
    except NonreducibleDenominatorError:
        return  # not all three sides defined at this point
    assert 0 <= ra < p and 0 <= rb < p
    assert rsum == (ra + rb) % p


@given(rationals, rationals, st.sampled_from([3, 5, 7, 11, 13]))
def test_mod_reduce_multiplicative(a, b, p):
    try:
        ra, rb, rprod = mod_reduce(a, p), mod_reduce(b, p), mod_reduce(a * b, p)
    except NonreducibleDenominatorError:
        return
    assert rprod == (ra * rb) % p
