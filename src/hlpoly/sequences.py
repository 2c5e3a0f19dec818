"""The three sequence families over parameters (k, alpha, a).

Each family has two deliberately independent evaluation paths:

  * a direct Stirling-number sum,

        bernoulli  B_n  = (-1)^n sum_{m=0..n} (-1)^m m! {n m} / (alpha m + a)^k
        cauchy1    c_n  = (-1)^n sum_{m=0..n} (-1)^m [n m] / (alpha m + a)^k
        cauchy2    ch_n = (-1)^n sum_{m=0..n} [n m] / (alpha m + a)^k

  * an expansion of the family's defining generating function (EGF reading:
    value v_n sits at t^n/n!),

        bernoulli  sum_m (1 - e^-t)^m / (alpha m + a)^k
        cauchy1    sum_m (ln(1+t))^m / (m! (alpha m + a)^k)
        cauchy2    sum_m (-ln(1+t))^m / (m! (alpha m + a)^k)

The two paths never share code beyond basic rational arithmetic, so either
can audit the other.

The derivative-coefficient functions evaluate two candidate answers to the
same question ("what sequence D_n makes prefactor(t) * sum(D_n t^n/n!)
equal the derivative of the family's generating function?"): one from a
closed-form Stirling sum, one forced term by term from the series itself.
They are kept separate and are *not* asserted equal here; comparing them is
the audit layer's job.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import ensure_nonsingular, factorial, pow_rat, singular_index
from .series import (
    EXP_POS,
    LOG1P,
    NEG_LOG1P,
    ONE_MINUS_EXP_NEG,
    PowerSeries,
    egf_coeff,
    kernel,
    phi_apply,
    phif_apply,
)
from .stirling import stirling1_unsigned, stirling2

__all__ = [
    "FAMILIES",
    "Family",
    "Params",
    "deriv_coeffs_oracle",
    "deriv_coeffs_printed",
    "explicit_scaled",
    "explicit_sequence",
    "explicit_value",
    "oracle_sequence",
    "poly_bernoulli",
    "poly_cauchy1",
    "poly_cauchy2",
]


class Family(enum.Enum):
    BERNOULLI = "bernoulli"
    CAUCHY1 = "cauchy1"
    CAUCHY2 = "cauchy2"

    def __str__(self) -> str:
        return self.value


FAMILIES = (Family.BERNOULLI, Family.CAUCHY1, Family.CAUCHY2)


@dataclass(frozen=True)
class Params:
    """Family parameters: integer k (any sign), rational alpha != 0, rational a.

    alpha*m + a must stay nonzero over whichever index range a computation
    touches; that is checked per call against the largest m actually used.
    """

    k: int
    alpha: Fraction
    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "a", Fraction(self.a))
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")

    def singular_index(self, m_max: int) -> int | None:
        """Smallest m in 0..m_max with alpha*m + a == 0, or None."""
        return singular_index(self.alpha, self.a, m_max)

    def weight(self, m: int) -> Fraction:
        """1 / (alpha*m + a)^k."""
        return pow_rat(self.alpha * m + self.a, -self.k)

    def scaled_weights(self, m_max: int) -> tuple[list[int], int]:
        """(W, D) with W[m] / D == weight(m) for m in 0..m_max, D the least
        common denominator, so that weighted sums run over integers."""
        weights = [self.weight(m) for m in range(m_max + 1)]
        den = math.lcm(*(w.denominator for w in weights))
        return [w.numerator * (den // w.denominator) for w in weights], den


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError("sequence index must be >= 0")


# (n, m) -> integer coefficient of 1/(alpha m + a)^k in member n
_STIRLING_COEFF = {
    Family.BERNOULLI: lambda n, m: (-1) ** (n + m) * factorial(m) * stirling2(n, m),
    Family.CAUCHY1: lambda n, m: (-1) ** (n + m) * stirling1_unsigned(n, m),
    Family.CAUCHY2: lambda n, m: (-1) ** n * stirling1_unsigned(n, m),
}


def _scaled_sums(coeff, first: int, last: int, params: Params, reach: int = 0):
    """Integer sums S over the weights' common denominator D, for n = first..last:

        S[n - first] / D = sum_{m=0..n+reach} coeff(n, m) / (alpha m + a)^k
    """
    ensure_nonsingular(params.alpha, params.a, last + reach)
    weights, den = params.scaled_weights(last + reach)
    sums = [
        sum(coeff(n, m) * weights[m] for m in range(n + reach + 1))
        for n in range(first, last + 1)
    ]
    return sums, den


def explicit_scaled(
    family: Family, n_max: int, params: Params
) -> tuple[list[int], int]:
    """Stirling-sum values 0..n_max as integer numerators over one common
    denominator D: value n is num[n] / D, not reduced."""
    return _scaled_sums(_STIRLING_COEFF[family], 0, n_max, params)


def explicit_value(family: Family, n: int, params: Params) -> Fraction:
    """Stirling-sum value of one family member."""
    _check_index(n)
    (num,), den = _scaled_sums(_STIRLING_COEFF[family], n, n, params)
    return Fraction(num, den)


def explicit_sequence(family: Family, n_max: int, params: Params) -> list[Fraction]:
    nums, den = explicit_scaled(family, n_max, params)
    return [Fraction(num, den) for num in nums]


def poly_bernoulli(n: int, params: Params) -> Fraction:
    """(-1)^n sum_{m=0..n} (-1)^m m! {n m} / (alpha m + a)^k."""
    return explicit_value(Family.BERNOULLI, n, params)


def poly_cauchy1(n: int, params: Params) -> Fraction:
    """(-1)^n sum_{m=0..n} (-1)^m [n m] / (alpha m + a)^k."""
    return explicit_value(Family.CAUCHY1, n, params)


def poly_cauchy2(n: int, params: Params) -> Fraction:
    """(-1)^n sum_{m=0..n} [n m] / (alpha m + a)^k."""
    return explicit_value(Family.CAUCHY2, n, params)


_KERNEL_FOR = {
    Family.BERNOULLI: ONE_MINUS_EXP_NEG,
    Family.CAUCHY1: LOG1P,
    Family.CAUCHY2: NEG_LOG1P,
}


def _family_series(family: Family, order: int, params: Params) -> PowerSeries:
    g = kernel(_KERNEL_FOR[family], order)
    if family is Family.BERNOULLI:
        return phi_apply(g, params.k, params.alpha, params.a)
    return phif_apply(g, params.k, params.alpha, params.a)


def oracle_sequence(family: Family, n_max: int, params: Params) -> list[Fraction]:
    """EGF coefficients 0..n_max read off the defining generating function.

    Composition with a zero-constant-term kernel is exact at order n_max, so
    no guard digits are needed; the result is independent of the
    Stirling-sum path.
    """
    _check_index(n_max)
    f = _family_series(family, n_max, params)
    return [egf_coeff(f, n) for n in range(n_max + 1)]


def _cauchy_deriv_coeff(n: int, m: int) -> int:
    return (-1) ** (n + m) * m * stirling1_unsigned(n, m)


# (n, m) -> integer coefficient of 1/(alpha m + a)^k in the printed D_n
_DERIV_COEFF = {
    Family.BERNOULLI: lambda n, m: factorial(m) * stirling2(n, m - 1),
    Family.CAUCHY1: _cauchy_deriv_coeff,
    Family.CAUCHY2: _cauchy_deriv_coeff,
}


def deriv_coeffs_printed(family: Family, n_max: int, params: Params) -> list[Fraction]:
    """The closed-form derivative coefficients, evaluated exactly as written:

        cauchy1/cauchy2: D_n = sum_{m=1..n}   [n m] m (-1)^(n+m) / (alpha m + a)^k
        bernoulli:       D_n = sum_{m=1..n+1} {n m-1} m! / (alpha m + a)^k
    """
    _check_index(n_max)
    reach = 1 if family is Family.BERNOULLI else 0
    nums, den = _scaled_sums(_DERIV_COEFF[family], 0, n_max, params, reach)
    return [Fraction(num, den) for num in nums]


def deriv_coeffs_oracle(family: Family, n_max: int, params: Params) -> list[Fraction]:
    """Derivative coefficients forced by the generating function itself.

    With G the family's series, this returns the EGF coefficients of
    (1+t) * G'(t) for the cauchy families and of e^t * G'(t) for the
    bernoulli family, i.e. the unique sequence making the corresponding
    1/(1+t)- or e^-t-prefactor display of d/dt G true.
    """
    _check_index(n_max)
    ensure_nonsingular(params.alpha, params.a, n_max + 1)
    dg = _family_series(family, n_max + 1, params).derivative()
    if family is Family.BERNOULLI:
        prefactor_inverse = kernel(EXP_POS, n_max)
    else:
        # 1 + t has EGF values 1, 1, 0, ...; the product truncates at dg's order
        prefactor_inverse = PowerSeries((1, 1) + (0,) * (n_max - 1))
    product = prefactor_inverse * dg
    return [egf_coeff(product, n) for n in range(n_max + 1)]
