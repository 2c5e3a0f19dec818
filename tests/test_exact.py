import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hlpoly import exact
from hlpoly.exact import (
    NonreducibleDenominatorError,
    decided,
    format_rational,
    fraction,
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


def test_mod_reduce_takes_int_bool_and_fraction_input():
    assert mod_reduce(-4, 3) == 2
    assert mod_reduce(True, 5) == 1
    assert mod_reduce(False, 5) == 0
    assert mod_reduce(Fraction(7, 2), 5) == 1  # 2 * 1 = 7 (mod 5)
    with pytest.raises(NonreducibleDenominatorError) as raised:
        mod_reduce(Fraction(5, 9), 3)
    assert type(raised.value.value) is Fraction


class _Tagged(Fraction):
    """A Fraction subclass with its own str()."""

    def __str__(self):
        return "tagged"


def test_subclasses_bools_ints_and_strings_take_the_general_path():
    # format_rational and mod_reduce keep a Fraction subclass as it is and
    # read anything else through Fraction(), a string included
    assert format_rational(_Tagged(2, 4)) == "1/2"
    assert format_rational(_Tagged(6, 3)) == "2"
    assert format_rational(10**40) == str(10**40)
    assert format_rational(" 3/6") == "1/2"
    with pytest.raises(ValueError):
        format_rational("first_second")
    assert [mod_reduce(_Tagged(7, 2), p) for p in (5, 3)] == [1, 2]
    assert [mod_reduce(True, p) for p in (5, 3)] == [1, 1]
    assert [mod_reduce(-4, p) for p in (5, 3)] == [1, 2]
    assert [mod_reduce("1/4", p) for p in (5, 3)] == [4, 1]
    with pytest.raises(NonreducibleDenominatorError) as raised:
        mod_reduce(_Tagged(5, 9), 3)
    assert type(raised.value.value) is _Tagged
    with pytest.raises(NonreducibleDenominatorError) as raised:
        mod_reduce("5/9", 3)
    assert type(raised.value.value) is Fraction


def test_nonreducible_denominator_error_text_fields_and_pickle():
    # built directly, and raised by mod_reduce on a Fraction and on a
    # subclass, which it keeps as it is: value and modulus are read from args
    errors = [NonreducibleDenominatorError(Fraction(1, 3), 3)]
    for value in ("5/9", _Tagged(5, 9)):
        with pytest.raises(NonreducibleDenominatorError) as raised:
            mod_reduce(value, 3)
        errors.append(raised.value)
    expected = [
        (Fraction(1, 3), Fraction, "1/3 has no residue mod 3: denominator 3 is divisible by 3"),
        (Fraction(5, 9), Fraction, "5/9 has no residue mod 3: denominator 9 is divisible by 3"),
        (Fraction(5, 9), _Tagged, "5/9 has no residue mod 3: denominator 9 is divisible by 3"),
    ]
    for error, (value, kind, text) in zip(errors, expected, strict=True):
        assert str(error) == text
        assert (error.value, error.modulus) == (value, 3) and type(error.value) is kind
        assert error.args == (value, 3) and error.args[0] is error.value
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is NonreducibleDenominatorError and type(copy.value) is kind
        assert (copy.value, copy.modulus, copy.args, str(copy)) == (value, 3, (value, 3), text)
    # no __init__ of the class's own: a raise costs what a bare exception's does
    assert "__init__" not in vars(NonreducibleDenominatorError)


def test_mod_reduce_requires_prime():
    with pytest.raises(ValueError):
        mod_reduce(Fraction(1, 2), 4)


def test_mod_reduce_tests_each_modulus_once():
    # a scan reduces many values by each of a few primes: primality is kept
    # per modulus, in a bounded cache, and a composite modulus raises each time
    exact._modulus_is_prime.cache_clear()
    assert [mod_reduce(Fraction(n, 2), 7) for n in range(5)] == [0, 4, 1, 5, 2]
    for _ in range(2):
        with pytest.raises(ValueError, match="modulus 9 is not prime"):
            mod_reduce(1, 9)
    info = exact._modulus_is_prime.cache_info()
    assert (info.misses, info.hits) == (2, 5) and info.maxsize is not None


def test_pow_rat_tests_a_zero_base_without_comparing_fractions(monkeypatch):
    def refused(self, other):
        raise AssertionError("a Fraction was compared")

    monkeypatch.setattr(Fraction, "__eq__", refused)
    for base in (0, Fraction(0), Fraction(0, 5)):
        with pytest.raises(ZeroDivisionError):
            pow_rat(base, -2)
    results = [pow_rat(Fraction(0), 2), pow_rat(Fraction(-2, 3), -3), pow_rat(0, 0)]
    monkeypatch.undo()
    assert results == [0, Fraction(-27, 8), 1]


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


# -- the Fraction builder -------------------------------------------------------


def test_the_stdlib_fraction_has_the_two_slots_the_builder_fills():
    # `exact` writes and reads these slots; a Python that changes the layout
    # fails here, not in the output
    assert Fraction.__slots__ == ("_numerator", "_denominator")


def same_fraction(built, expected) -> bool:
    """Exactly the Fraction `expected`: type, reduced slots, hash and repr."""
    return (
        type(built) is Fraction
        and (built.numerator, built.denominator) == (expected.numerator, expected.denominator)
        and hash(built) == hash(expected)
        and repr(built) == repr(expected)
    )


@given(
    st.integers(-(10**30), 10**30),
    st.integers(1, 10**12),
    st.integers(1, 10**6),
    rationals.filter(bool),
)
@example(0, 7, 1, Fraction(1))
@example(-6, 1, 4, Fraction(-1, 2))
def test_the_builder_gives_the_fraction_the_constructor_gives(num, den, common, other):
    # negative and zero numerators, den == 1, and shared factors
    for n, d in ((num, den), (num * common, den * common), (num, 1), (0, den)):
        built, expected = fraction(n, d), Fraction(n, d)
        assert same_fraction(built, expected)
        copy = pickle.loads(pickle.dumps(built))
        assert same_fraction(copy, expected)
        assert (built < other, built <= other, built > other) == (
            expected < other, expected <= other, expected > other
        )
        assert built == expected and not built != expected
        for result, want in (
            (built + other, expected + other),
            (built - other, expected - other),
            (built * other, expected * other),
            (built / other, expected / other),
            (-built, -expected),
            (built**2, expected**2),
        ):
            assert same_fraction(result, want)


@given(rationals, st.integers(-7, 7))
@example(Fraction(-2, 3), -3)
@example(Fraction(-2, 3), 0)
@example(Fraction(-2, 3), 3)
@example(Fraction(5, 4), -2)
@example(Fraction(0), 0)
@example(Fraction(0), 4)
def test_pow_rat_is_the_stdlib_power(base, k):
    # positive and negative bases at k < 0, k = 0 and k > 0, as reduced
    # Fractions built without a gcd
    if not base and k < 0:
        with pytest.raises(ZeroDivisionError):
            pow_rat(base, k)
        return
    assert same_fraction(pow_rat(base, k), base**k)
    assert same_fraction(pow_rat(base.numerator, k), Fraction(base.numerator) ** k)


@pytest.mark.parametrize("k", [-1, -2, -5])
def test_pow_rat_refuses_a_zero_base_at_every_negative_k(k):
    for base in (0, Fraction(0), fraction(0, 9)):
        with pytest.raises(ZeroDivisionError):
            pow_rat(base, k)


def test_decided_takes_the_fraction_numerators_of_a_variant_prefactor():
    # a (m!)^-1 prefactor makes the numerators Fractions: an equal one is the
    # known Fraction itself, an unequal one the Fraction num / den
    known = [Fraction(1, 2), Fraction(-2, 3), Fraction(5)]
    nums = [Fraction(3, 2), Fraction(-2), Fraction(7, 6)]
    values = decided(known, nums, 3)
    assert values[0] is known[0] and values[1] is known[1]
    assert same_fraction(values[2], Fraction(7, 18))
    # int numerators take the builder and give the same Fraction
    assert same_fraction(decided([Fraction(1)], [-4], 6)[0], Fraction(-2, 3))
