import copy
import pickle
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from hlpoly import series as series_module
from hlpoly.exact import SingularParameterError
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


def test_a_series_is_a_value():
    # (nums, den) alone fix equality, hash and repr, and neither field can
    # be assigned or deleted; a copy or a pickled copy is an equal series
    f = PowerSeries([0, 2], 2)
    assert repr(f) == "PowerSeries(nums=(0, 1), den=1)"
    assert f == PowerSeries((0, 1)) and hash(f) == hash(PowerSeries((0, 3), 3))
    assert f != PowerSeries((0, 1), 2) and f != PowerSeries((0, 1, 0))
    assert f != ((0, 1), 1)
    for field in ("nums", "den"):
        with pytest.raises(AttributeError):
            setattr(f, field, getattr(f, field))
        with pytest.raises(AttributeError):
            delattr(f, field)
    for same in (copy.copy(f), pickle.loads(pickle.dumps(f))):
        assert same == f and repr(same) == repr(f)


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


# EGF numerators with many zeros, as the cauchy families' 1 + t has
sparse_nums = st.lists(
    st.one_of(st.just(0), st.integers(-50, 50)), min_size=1, max_size=14
)


@given(sparse_nums, sparse_nums, st.integers(1, 12), st.integers(1, 12))
@example([1, 1] + [0] * 12, list(range(14)), 1, 7)
def test_mul_visiting_nonzero_terms_is_the_dense_convolution(f, g, d, e):
    # every product term C(n, j) f_j g_(n-j), j = 0..n, over d * e, reduced
    # as the series keeps it; the product visits only f's nonzero terms
    order = min(len(f), len(g)) - 1
    dense = tuple(
        sum(comb(n, j) * f[j] * g[n - j] for j in range(n + 1)) for n in range(order + 1)
    )
    assert PowerSeries(tuple(f), d) * PowerSeries(tuple(g), e) == PowerSeries(dense, d * e)


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


def test_a_kernel_is_built_once_per_value_rule_and_order(monkeypatch):
    first = kernel("log1p", 6)
    assert kernel("log1p", 6) is first
    assert kernel("log1p", 5) is not first and kernel("neg_log1p", 6) is not first
    # a rule put in the table gets its own series, even with the same values
    value = series_module._KERNELS["log1p"]
    monkeypatch.setitem(series_module._KERNELS, "log1p", lambda n: value(n))
    patched = kernel("log1p", 6)
    assert patched is not first and patched == first
    monkeypatch.undo()
    assert kernel("log1p", 6) is first


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


# The integer weights W_m / D of 1 / (alpha*m + a)^k. alpha may be negative and
# alpha*m + a may change sign inside 0..N; the examples pin a k > 0 and a
# k < 0 at alpha = -1/2, a = 7/3 (coprime denominators, a sign change at m = 5)
@given(
    st.integers(-5, 5),
    small_fractions.filter(bool),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9)),
    st.integers(0, 12),
)
@example(3, Fraction(-1, 2), Fraction(7, 3), 12)
@example(-2, Fraction(-1, 2), Fraction(7, 3), 12)
def test_power_weights_match_the_fraction_definition(k, alpha, a, order):
    assume(all(alpha * m + a for m in range(order + 1)))
    weights, den = series_module._power_weights(PowerSeries((0,) * (order + 1)), k, alpha, a)
    assert den > 0 and all(type(v) is int for v in (*weights, den))
    assert [Fraction(w, den) for w in weights] == [
        1 / (alpha * m + a) ** k for m in range(order + 1)
    ]


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


def naive_compositions(g: PowerSeries, k: int, alpha, a) -> tuple[PowerSeries, PowerSeries]:
    """phi_apply and phif_apply of g summed term by term over Fractions."""
    alpha, a = Fraction(alpha), Fraction(a)
    powers = compose_powers(ordinary(g), g.order)
    phi, phif = [Fraction(0)] * (g.order + 1), [Fraction(0)] * (g.order + 1)
    for m, power in enumerate(powers):
        weight = 1 / (alpha * m + a) ** k
        phi = [c + p * weight for c, p in zip(phi, power)]
        phif = [c + p * weight / factorial(m) for c, p in zip(phif, power)]
    return series(*phi), series(*phif)


# alpha = 0 (one weight for every m), negative alpha, alpha*m + a changing
# sign past the order, ints and Fractions
@pytest.mark.parametrize(
    "alpha, a",
    [(0, 2), (0, Fraction(-1, 3)), (-1, Fraction(7, 2)), (Fraction(-1, 2), 5), (-1, 6)],
)
@pytest.mark.parametrize("k", [-2, 0, 3])
def test_compositions_match_the_term_by_term_sum(alpha, a, k):
    g = kernel("log1p", 5)
    assert (phi_apply(g, k, alpha, a), phif_apply(g, k, alpha, a)) == naive_compositions(
        g, k, alpha, a
    )


@pytest.mark.parametrize(
    "alpha, a, message",
    [
        (0, 0, "alpha*m + a vanishes at m = 0 for alpha = 0, a = 0"),
        (-1, 3, "alpha*m + a vanishes at m = 3 for alpha = -1, a = 3"),
        (Fraction(-1, 2), 2, "alpha*m + a vanishes at m = 4 for alpha = -1/2, a = 2"),
    ],
)
@pytest.mark.parametrize("k", [-1, 0, 2])
def test_a_singular_composition_names_its_index(alpha, a, message, k):
    g = kernel("neg_log1p", 5)
    for compose in (phi_apply, phif_apply):
        with pytest.raises(SingularParameterError) as caught:
            compose(g, k, alpha, a)
        assert str(caught.value) == message


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
