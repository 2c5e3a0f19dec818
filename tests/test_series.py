import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hlpoly.exact import SingularParameterError, factorial
from hlpoly.series import (
    KERNEL_NAMES,
    NonzeroConstantTermError,
    PowerSeries,
    TruncationExceededError,
    egf_coeff,
    kernel,
    phi_apply,
    phif_apply,
)

from bruteforce import compose_powers, mul_trunc, taylor, to_egf

small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
small_coeffs = st.lists(small_fractions, min_size=1, max_size=7)


def series(*coeffs) -> PowerSeries:
    """The series with ordinary Taylor coefficients `coeffs`."""
    return PowerSeries(*to_egf([Fraction(c) for c in coeffs]))


def ordinary(f: PowerSeries) -> list[Fraction]:
    return [f.coefficient(i) for i in range(f.order + 1)]


def head(f: PowerSeries, m: int) -> PowerSeries:
    """f with the coefficients above order m dropped."""
    return PowerSeries(f.nums[: m + 1], f.den)


small_series = small_coeffs.map(lambda c: series(*c))


# -- the format ---------------------------------------------------------------


def test_series_holds_ints_in_lowest_terms():
    f = PowerSeries((2, 4, -6), 8)
    assert (f.nums, f.den) == ((1, 2, -3), 4)
    assert all(type(v) is int for v in f.nums + (f.den,))
    assert PowerSeries((0, 0), 5) == PowerSeries((0, 0))
    with pytest.raises(ValueError):
        PowerSeries((1, 2), 0)
    with pytest.raises(ValueError):
        PowerSeries(())
    with pytest.raises(TypeError):
        PowerSeries((Fraction(1, 2),))


@given(small_coeffs, st.integers(1, 50))
def test_scaled_denominator_compares_equal(coeffs, scale):
    nums, den = to_egf(coeffs)
    assert PowerSeries(tuple(v * scale for v in nums), den * scale) == PowerSeries(
        nums, den
    )


# -- arithmetic ---------------------------------------------------------------


def test_min_order_truncation():
    f = series(1, 2, 3, 4)  # order 3
    g = series(1, 0, 0, 0, 0, 1)  # order 5
    assert (f * g).order == 3


def test_mul_examples():
    assert series(1, 1, 0) * series(1, -1, 0) == series(1, 0, -1)
    f = series(2, 5, 7)
    assert f * series(1, 0, 0) == f
    t = series(0, 1, 0)
    assert t * t == series(0, 0, 1)


@given(small_coeffs, small_coeffs)
def test_mul_matches_the_ordinary_product(f, g):
    order = min(len(f), len(g)) - 1
    assert ordinary(series(*f) * series(*g)) == mul_trunc(f, g, order)


@given(small_coeffs.filter(lambda c: len(c) > 1))
def test_derivative_matches_the_termwise_derivative(f):
    expected = [(i + 1) * f[i + 1] for i in range(len(f) - 1)]
    assert ordinary(series(*f).derivative()) == expected


@given(small_series, small_series)
def test_mul_commutative(f, g):
    assert f * g == g * f


@given(small_series, small_series, small_series)
def test_mul_associative_up_to_truncation(f, g, h):
    # both sides truncate at min(f.order, g.order, h.order)
    assert (f * g) * h == f * (g * h)


def test_derivative():
    assert series(1, 1, 1).derivative() == series(1, 2)
    assert series(5, 0, 0).derivative() == series(0, 0)
    assert series(0, 0, 0, Fraction(1, 6)).derivative() == series(0, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        series(7).derivative()


@given(small_series, small_series, st.integers(0, 6))
def test_truncation_consistency(f, g, m):
    m = min(m, f.order, g.order)
    assert head(f * g, m) == head(f, m) * head(g, m)


# -- kernels ------------------------------------------------------------------


def test_kernel_examples():
    assert kernel("one_minus_exp_neg", 3) == series(
        0, 1, Fraction(-1, 2), Fraction(1, 6)
    )
    assert kernel("log1p", 3) == series(0, 1, Fraction(-1, 2), Fraction(1, 3))
    assert kernel("geom_1_over_1_plus_t", 2) == series(1, -1, 1)


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_kernel_taylor_coefficients_exact(name):
    expected = taylor(name, 16)
    assert ordinary(kernel(name, 16)) == expected
    assert kernel(name, 16).den == 1


@given(st.sampled_from(KERNEL_NAMES), st.integers(0, 24))
def test_kernel_coefficients_match_the_taylor_reference(name, order):
    f = kernel(name, order)
    assert [f.coefficient(n) for n in range(order + 1)] == taylor(name, order)


def test_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        kernel("sin", 4)
    with pytest.raises(ValueError):
        kernel("log1p", -1)


# -- composition (the reference in bruteforce, and PowerSeries powers) ---------


def test_compose_powers_of_t():
    t = [Fraction(c) for c in (0, 1, 0, 0)]
    powers = compose_powers(t, 3)
    assert powers[0] == [1, 0, 0, 0]
    assert powers[1] == t
    assert powers[2] == [0, 0, 1, 0]
    assert powers[3] == [0, 0, 0, 1]


def test_compose_powers_requires_zero_constant_term():
    with pytest.raises(ValueError):
        compose_powers([Fraction(1), Fraction(1)], 2)


def test_compose_powers_truncated_square():
    g = [Fraction(0), Fraction(1), Fraction(-1, 2)]  # order 2
    assert compose_powers(g, 2)[2] == [0, 0, 1]


def test_compose_powers_vanish_beyond_order():
    g = [Fraction(0), Fraction(1)]
    assert compose_powers(g, 3)[2] == [0, 0]


@given(small_coeffs)
def test_power_valuation(f):
    coeffs = [Fraction(0)] + f
    g = series(*coeffs)
    power = series(1, *[0] * g.order)
    for m, expected in enumerate(compose_powers(coeffs, 4)):
        assert ordinary(power) == expected
        assert not any(power.nums[: min(m, power.order + 1)])
        power = power * g


# -- phi / phif ---------------------------------------------------------------


def test_phi_of_zero_series():
    f = phi_apply(PowerSeries((0,) * 5), 2, 1, Fraction(1, 2))
    assert f == PowerSeries((4, 0, 0, 0, 0))


def test_phi_bernoulli_fixture():
    f = phi_apply(kernel("one_minus_exp_neg", 3), 1, 1, 1)
    assert [egf_coeff(f, n) for n in range(4)] == [
        1,
        Fraction(1, 2),
        Fraction(1, 6),
        0,
    ]


def test_phi_singular_parameter():
    with pytest.raises(SingularParameterError):
        phi_apply(kernel("one_minus_exp_neg", 3), 1, 1, -2)


def test_phi_rejects_nonzero_constant_term():
    with pytest.raises(NonzeroConstantTermError):
        phi_apply(series(1, 1, 1), 1, 1, 1)
    with pytest.raises(NonzeroConstantTermError):
        phif_apply(series(1, 1, 1), 1, 1, 1)


def test_phif_cauchy_fixtures():
    f = phif_apply(kernel("log1p", 3), 1, 1, 1)
    assert [egf_coeff(f, n) for n in range(4)] == [
        1,
        Fraction(1, 2),
        Fraction(-1, 6),
        Fraction(1, 4),
    ]
    g = phif_apply(kernel("neg_log1p", 2), 1, 1, 1)
    assert [egf_coeff(g, n) for n in range(3)] == [
        1,
        Fraction(-1, 2),
        Fraction(5, 6),
    ]


def test_phif_is_phi_with_factorial_scaling():
    g = kernel("log1p", 8)
    powers = compose_powers(ordinary(g), 8)
    k, alpha, a = 2, Fraction(1, 2), Fraction(1)
    total = [Fraction(0)] * 9
    for m in range(9):
        weight = Fraction(1) / (alpha * m + a) ** k / factorial(m)
        total = [c + p * weight for c, p in zip(total, powers[m])]
    assert phif_apply(g, k, alpha, a) == series(*total)


def test_exp_of_log1p_recovers_one_plus_t():
    # sum_m g^m / m! with unit weights is the exponential of g
    for order in range(1, 11):
        g = kernel("log1p", order)
        f = phif_apply(g, 0, 1, 1)
        assert f.nums == (1, 1) + (0,) * (order - 1)
        assert f.den == 1


def test_egf_coeff():
    f = series(*[Fraction(1, factorial(n)) for n in range(6)])
    assert egf_coeff(f, 5) == 1
    assert egf_coeff(series(0, 0, Fraction(1, 6)), 2) == Fraction(1, 3)
    with pytest.raises(TruncationExceededError):
        egf_coeff(series(1, 2), 2)
    with pytest.raises(TruncationExceededError):
        series(1, 2).coefficient(2)
    with pytest.raises(ValueError):
        series(1, 2).coefficient(-1)


def test_randomized_truncation_consistency_bulk():
    rng = random.Random(49)
    for _ in range(300):
        n = rng.randint(1, 8)
        f = series(
            *[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
        )
        g = series(
            *[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
        )
        m = rng.randint(0, n)
        assert head(f * g, m) == head(f, m) * head(g, m)
