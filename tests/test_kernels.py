"""Property tests of the integer common-denominator kernels against plain
Fraction reference computations.

The Stirling-sum path, the generating-function path and the collapsed
EQ9-EQ12 right-hand side all sum integers over one common denominator
internally; each test below recomputes the same value the slow, obvious way.
"""

from fractions import Fraction
from math import factorial

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hlpoly.audit import _DUALITY_SHAPE, GridSpec, run_identity
from hlpoly.sequences import FAMILIES, Params, explicit_sequence, explicit_value
from hlpoly import series
from hlpoly.series import PowerSeries, phi_apply, phif_apply

from bruteforce import compose_powers, family_closed_form, to_egf

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
nonzero_rationals = rationals.filter(lambda q: q != 0)
exponents = st.integers(-4, 5)
families = st.sampled_from(FAMILIES)

SETTINGS = settings(max_examples=40, deadline=None)


def _params(k, alpha, a, m_max) -> Params:
    params = Params(k, alpha, a)
    assume(params.singular_index(m_max) is None)
    return params


@SETTINGS
@given(families, st.integers(0, 9), exponents, nonzero_rationals, rationals)
def test_explicit_kernels_match_the_closed_form(family, n_max, k, alpha, a):
    params = _params(k, alpha, a, n_max)
    expected = [
        family_closed_form(family.value, n, k, alpha, a) for n in range(n_max + 1)
    ]
    assert explicit_sequence(family, n_max, params) == expected
    assert explicit_value(family, n_max, params) == expected[-1]


def _power_sum(coeffs, k, alpha, a, factorial_scaled: bool) -> PowerSeries:
    """sum_m g^m / (alpha m + a)^k (or / m! too) for g with ordinary
    coefficients `coeffs`, as a plain Fraction sum of compose_powers."""
    total = [Fraction(0)] * len(coeffs)
    for m, power in enumerate(compose_powers(coeffs, len(coeffs) - 1)):
        weight = Fraction(1) / (alpha * m + a) ** k
        if factorial_scaled:
            weight /= factorial(m)
        total = [c + p * weight for c, p in zip(total, power)]
    return PowerSeries(*to_egf(total))


def test_non_integral_egf_kernel_example():
    # t/3 + 2t^2/7: EGF coefficients 1/3 and 4/7, so the kernel has to clear
    # denominators before its integer convolutions
    coeffs = [Fraction(0), Fraction(1, 3), Fraction(2, 7), 0, 0, 0]
    g = PowerSeries(*to_egf(coeffs))
    assert g.den == 21
    k, alpha, a = 2, Fraction(1, 2), Fraction(3)
    assert phi_apply(g, k, alpha, a) == _power_sum(coeffs, k, alpha, a, False)
    assert phif_apply(g, k, alpha, a) == _power_sum(coeffs, k, alpha, a, True)


@SETTINGS
@given(
    st.lists(rationals, min_size=0, max_size=7),
    exponents,
    nonzero_rationals,
    rationals,
)
def test_series_kernels_match_a_compose_powers_sum(tail, k, alpha, a):
    coeffs = [Fraction(0)] + tail
    g = PowerSeries(*to_egf(coeffs))
    _params(k, alpha, a, g.order)
    assert phi_apply(g, k, alpha, a) == _power_sum(coeffs, k, alpha, a, False)
    assert phif_apply(g, k, alpha, a) == _power_sum(coeffs, k, alpha, a, True)


def test_each_series_has_its_own_bell_table_and_composing_it_again_reuses_it():
    k, alpha, a = 2, Fraction(1, 2), Fraction(3)
    # integer EGF values, so a prefix of g keeps g's numerators; g and h agree
    # to order 3
    g = (0, 1, -1, 2, 3, 0, 5)
    h = g[:4] + (-4, 1, 0)

    def check(nums):
        coeffs = [Fraction(v, factorial(n)) for n, v in enumerate(nums)]
        f = PowerSeries(nums)
        assert phi_apply(f, k, alpha, a) == _power_sum(coeffs, k, alpha, a, False)
        assert phif_apply(f, k, alpha, a) == _power_sum(coeffs, k, alpha, a, True)

    for nums in (g, g[:4], h):
        check(nums)
    hits = series._bell_rows.cache_info().hits
    check(g)
    assert series._bell_rows.cache_info().hits == hits + 2
    # row i reads only G_1..G_i, so series that share a prefix have equal rows
    # there
    rows = series._bell_rows
    assert rows(g)[:4] == rows(g[:4]) == rows(h)[:4] and rows(g)[4:] != rows(h)[4:]


def _double_sum(identity, n, params, prefactor) -> Fraction:
    """The EQ9-EQ12 right-hand side as printed: a Fraction double sum."""
    summed_family, triangle, _ = _DUALITY_SHAPE[identity]
    inner = explicit_sequence(summed_family, n, params)
    rhs = Fraction(0)
    for m in range(n + 1):
        for l in range(n + 1):
            rhs += prefactor(n, m) * triangle(n, m) * triangle(m, l) * inner[l]
    return rhs


def _audited_rhs(identity, n, params, prefactor=None) -> Fraction:
    """The collapsed right-hand side the audit reports at index n."""
    grid = GridSpec(n_max=n, k_values=(params.k,), pairs=((params.alpha, params.a),))
    return run_identity(identity, grid, prefactor).verdicts[n].rhs


@SETTINGS
@given(
    st.sampled_from(sorted(_DUALITY_SHAPE)),
    st.integers(0, 8),
    exponents,
    nonzero_rationals,
    rationals,
    nonzero_rationals,
)
def test_collapsed_duality_equals_the_double_sum(identity, n, k, alpha, a, scale):
    params = _params(k, alpha, a, n)
    printed = _DUALITY_SHAPE[identity][2]
    assert _audited_rhs(identity, n, params) == _double_sum(
        identity, n, params, printed
    )

    def variant(n, m):
        return scale * printed(n, m) / (m + 1)

    assert _audited_rhs(identity, n, params, variant) == _double_sum(
        identity, n, params, variant
    )
