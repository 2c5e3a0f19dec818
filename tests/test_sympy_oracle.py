"""A third oracle: sympy's Stirling numbers, modular inverses and series
expansions, independent of both of the package's evaluation paths.

Skipped when sympy is not installed. Every sympy value here is computed by
sympy's own algorithms: its Stirling functions, `mod_inverse`, its incomplete
Bell polynomials and `series` of each family's generating function written
out as a sympy expression.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

from hlpoly import series  # noqa: E402
from hlpoly.exact import NonreducibleDenominatorError, mod_reduce  # noqa: E402
from hlpoly.sequences import (  # noqa: E402
    FAMILIES,
    Family,
    Params,
    explicit_sequence,
    oracle_sequence,
)
from hlpoly.stirling import stirling1_unsigned, stirling2  # noqa: E402

N_MAX = 5
# nonsingular points, one with k < 0 and one with a negative alpha
POINTS = (Params(-1, 3, Fraction(1, 3)), Params(1, -1, Fraction(5, 2)))


def test_both_triangles_match_sympy():
    for n in range(21):
        for m in range(n + 1):
            assert stirling1_unsigned(n, m) == stirling(n, m, kind=1, signed=False)
            assert stirling2(n, m) == stirling(n, m, kind=2)


# The series oracle's partial Bell rows B(n, m) = [(L g)^m / m!]_n against
# sympy's incomplete Bell polynomials at the EGF numerators G_1, G_2, ...
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=8))
def test_bell_rows_match_sympy_bell(tail):
    G = (0, *tail)
    rows = series._bell_rows(G)
    assert [len(row) for row in rows] == list(range(1, len(G) + 1))
    for n, row in enumerate(rows):
        assert list(row) == [sympy.bell(n, m, tail) for m in range(n + 1)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-10**6, 10**6),
    st.integers(1, 10**6),
    st.sampled_from((2, 3, 5, 7, 11, 13, 65521)),
)
def test_mod_reduce_matches_sympy_mod_inverse(num, den, p):
    value = Fraction(num, den)
    if value.denominator % p == 0:
        with pytest.raises(NonreducibleDenominatorError):
            mod_reduce(value, p)
    else:
        expected = value.numerator * sympy.mod_inverse(value.denominator, p) % p
        assert mod_reduce(value, p) == expected


def _sympy_values(family: Family, params: Params) -> list[Fraction]:
    """EGF values 0..N_MAX of the family's generating function, expanded by
    sympy.series: first the kernel, then the weighted sum of its powers.
    Powers past N_MAX are O(t^(N_MAX+1)) and are left out."""
    t = sympy.Symbol("t")
    k, alpha, a = params.k, sympy.Rational(params.alpha), sympy.Rational(params.a)
    y = {
        Family.BERNOULLI: 1 - sympy.exp(-t),
        Family.CAUCHY1: sympy.log(1 + t),
        Family.CAUCHY2: -sympy.log(1 + t),
    }[family]
    y = sympy.series(y, t, 0, N_MAX + 1).removeO()
    scaled = family is not Family.BERNOULLI
    g = sum(
        y**m / ((sympy.factorial(m) if scaled else 1) * (alpha * m + a) ** k)
        for m in range(N_MAX + 1)
    )
    expansion = sympy.series(g, t, 0, N_MAX + 1).removeO()
    values = [expansion.coeff(t, n) * sympy.factorial(n) for n in range(N_MAX + 1)]
    return [Fraction(int(v.p), int(v.q)) for v in values]


@pytest.mark.parametrize("params", POINTS, ids=lambda p: f"{p.k},{p.alpha},{p.a}")
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_both_paths_match_sympy_series(family, params):
    expected = _sympy_values(family, params)
    assert explicit_sequence(family, N_MAX, params) == expected
    assert oracle_sequence(family, N_MAX, params) == expected
