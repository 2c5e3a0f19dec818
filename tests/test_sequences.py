from fractions import Fraction

import pytest

from hlpoly.exact import SingularParameterError, ensure_nonsingular, factorial
from hlpoly.sequences import (
    FAMILIES,
    Family,
    Params,
    deriv_coeffs_oracle,
    deriv_coeffs_printed,
    explicit_sequence,
    explicit_value,
    oracle_sequence,
    poly_bernoulli,
    poly_cauchy1,
    poly_cauchy2,
)
from hlpoly.series import PowerSeries, kernel
from hlpoly.stirling import stirling1_unsigned

from bruteforce import family_egf, to_egf

P111 = Params(1, 1, 1)

SMALL_GRID = [
    Params(k, alpha, a)
    for alpha, a in [(1, 1), (2, 1), (Fraction(1, 2), 1), (3, Fraction(1, 3))]
    for k in (-2, -1, 0, 1, 2, 3)
]


# -- Params -------------------------------------------------------------------


def test_params_rejects_zero_alpha():
    with pytest.raises(ValueError):
        Params(1, 0, 1)


def test_params_singular_index():
    assert Params(1, 1, -2).singular_index(5) == 2
    assert Params(1, 1, -2).singular_index(1) is None
    assert Params(2, Fraction(1, 2), -1).singular_index(5) == 2
    assert Params(1, 1, Fraction(1, 2)).singular_index(100) is None
    with pytest.raises(SingularParameterError):
        ensure_nonsingular(Fraction(1), Fraction(-2), 3)


def test_params_weight():
    assert Params(2, 1, 1).weight(1) == Fraction(1, 4)
    assert Params(-2, 1, 1).weight(2) == 9
    assert Params(0, 7, 5).weight(3) == 1


# -- explicit formulas: frozen fixtures ---------------------------------------


def test_bernoulli_values():
    assert poly_bernoulli(0, Params(3, 2, Fraction(1, 2))) == 8
    assert poly_bernoulli(2, P111) == Fraction(1, 6)
    assert poly_bernoulli(3, P111) == 0


def test_cauchy1_values():
    assert poly_cauchy1(0, Params(2, 1, 3)) == Fraction(1, 9)
    assert poly_cauchy1(2, P111) == Fraction(-1, 6)
    assert poly_cauchy1(3, Params(1, 2, 1)) == Fraction(22, 105)


def test_cauchy2_values():
    assert poly_cauchy2(0, Params(1, 5, 4)) == Fraction(1, 4)
    assert poly_cauchy2(1, P111) == Fraction(-1, 2)
    assert poly_cauchy2(2, P111) == Fraction(5, 6)


def test_index_zero_is_a_power_of_a():
    for params in SMALL_GRID:
        expected = params.weight(0)
        for family in FAMILIES:
            assert explicit_value(family, 0, params) == expected


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        poly_bernoulli(-1, P111)


def test_singular_parameter_raises():
    bad = Params(1, 1, -2)
    assert poly_cauchy1(1, bad) is not None  # below the singular index: fine
    with pytest.raises(SingularParameterError):
        poly_cauchy1(2, bad)


# -- oracle path --------------------------------------------------------------


def test_oracle_fixtures():
    assert oracle_sequence(Family.BERNOULLI, 3, P111) == [
        1,
        Fraction(1, 2),
        Fraction(1, 6),
        0,
    ]
    assert oracle_sequence(Family.CAUCHY1, 3, P111) == [
        1,
        Fraction(1, 2),
        Fraction(-1, 6),
        Fraction(1, 4),
    ]
    for family in FAMILIES:
        assert oracle_sequence(family, 0, Params(2, 3, 5)) == [Fraction(1, 25)]


def test_oracle_matches_bruteforce():
    for family in FAMILIES:
        for params in [P111, Params(2, 2, 1), Params(-1, Fraction(1, 2), 1)]:
            assert oracle_sequence(family, 8, params) == family_egf(
                family.value, params.k, params.alpha, params.a, 8
            )


def test_formula_equals_oracle_on_grid():
    for family in FAMILIES:
        for params in SMALL_GRID:
            assert explicit_sequence(family, 10, params) == oracle_sequence(
                family, 10, params
            )


def test_k_zero_degeneracy():
    # at k = 0 the weights collapse to 1 and the three series close up:
    # bernoulli -> e^t, cauchy1 -> 1 + t, cauchy2 -> 1/(1+t)
    params = Params(0, 7, Fraction(3, 5))
    n = 9
    assert oracle_sequence(Family.BERNOULLI, n, params) == [1] * (n + 1)
    assert oracle_sequence(Family.CAUCHY1, n, params) == [1, 1] + [0] * (n - 1)
    assert oracle_sequence(Family.CAUCHY2, n, params) == [
        (-1) ** i * factorial(i) for i in range(n + 1)
    ]
    for family in FAMILIES:
        assert explicit_sequence(family, n, params) == oracle_sequence(
            family, n, params
        )


def test_classical_specialization():
    # alpha = a = 1 reproduces the classical sequences
    bernoulli_k2 = oracle_sequence(Family.BERNOULLI, 4, Params(2, 1, 1))
    assert bernoulli_k2 == [
        1,
        Fraction(1, 4),
        Fraction(-1, 36),
        Fraction(-1, 24),
        Fraction(7, 450),
    ]
    cauchy_first = oracle_sequence(Family.CAUCHY1, 5, P111)
    assert cauchy_first == [
        1,
        Fraction(1, 2),
        Fraction(-1, 6),
        Fraction(1, 4),
        Fraction(-19, 30),
        Fraction(9, 4),
    ]
    # cross-check against the independent expander for k = 1..3, n <= 8
    for family in FAMILIES:
        for k in (1, 2, 3):
            assert oracle_sequence(family, 8, Params(k, 1, 1)) == family_egf(
                family.value, k, 1, 1, 8
            )


# -- derivative coefficients --------------------------------------------------


def test_deriv_printed_fixtures():
    assert deriv_coeffs_printed(Family.CAUCHY1, 1, P111) == [0, Fraction(1, 2)]
    assert deriv_coeffs_printed(Family.CAUCHY2, 0, P111) == [0]
    assert deriv_coeffs_printed(Family.BERNOULLI, 0, P111) == [Fraction(1, 2)]


def test_deriv_oracle_fixtures():
    assert deriv_coeffs_oracle(Family.CAUCHY1, 1, P111) == [
        Fraction(1, 2),
        Fraction(1, 3),
    ]
    assert deriv_coeffs_oracle(Family.BERNOULLI, 0, P111) == [Fraction(1, 2)]


def test_deriv_oracle_first_value_is_second_sequence_member():
    # the constant derivative coefficient is always G'(0) = s_1
    for family in FAMILIES:
        for params in [P111, Params(2, 2, 1), Params(-1, 3, Fraction(1, 3))]:
            oracle = deriv_coeffs_oracle(family, 0, params)
            assert oracle[0] == explicit_value(family, 1, params)


def test_deriv_oracle_reconstructs_derivative():
    # multiplying the claimed coefficients back by the stated prefactor
    # series must reproduce G'(t) exactly
    n_max = 8
    for family in FAMILIES:
        for params in [P111, Params(2, Fraction(1, 2), 1), Params(-2, 1, 2)]:
            oracle = deriv_coeffs_oracle(family, n_max, params)
            claimed = PowerSeries(*to_egf(
                [oracle[n] / factorial(n) for n in range(n_max + 1)]
            ))
            prefactor = kernel(
                "exp_neg" if family is Family.BERNOULLI else "geom_1_over_1_plus_t",
                n_max,
            )
            g_values = oracle_sequence(family, n_max + 1, params)
            g_prime = PowerSeries(*to_egf(
                [g_values[n + 1] / factorial(n) for n in range(n_max + 1)]
            ))
            assert prefactor * claimed == g_prime


def test_deriv_printed_is_what_it_says():
    # spot-check the closed form against a hand-expanded term
    params = Params(2, 3, Fraction(1, 3))
    n = 4
    expected = Fraction(0)
    for m in range(1, n + 1):
        expected += (
            stirling1_unsigned(n, m)
            * m
            * (-1) ** (n + m)
            / (params.alpha * m + params.a) ** params.k
        )
    assert deriv_coeffs_printed(Family.CAUCHY1, n, params)[n] == expected
    assert deriv_coeffs_printed(Family.CAUCHY2, n, params)[n] == expected


def test_deriv_validity_range():
    # bernoulli printed coefficients reach alpha*(n+1) + a
    with pytest.raises(SingularParameterError):
        deriv_coeffs_printed(Family.BERNOULLI, 2, Params(1, 1, -3))
    with pytest.raises(SingularParameterError):
        deriv_coeffs_oracle(Family.CAUCHY1, 2, Params(1, 1, -3))
