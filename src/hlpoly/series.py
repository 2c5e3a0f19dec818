"""Truncated exponential generating functions over exact integers.

A series of order N stores integer EGF numerators v_0..v_N over one positive
denominator D and stands for sum(v_n / D * t^n / n!) + O(t^(N+1)). Products
truncate to the smaller operand's order and nothing is ever zero-extended, so
a result's order is an honest statement of how many coefficients are exact.

The composition kernels here (1 - e^-t, +/-ln(1+t), e^+-t, 1/(1+t)) all have
closed-form integer EGF values; summing powers of a kernel with zero constant
term against rational weights is exact at any truncation order, which is what
makes this module usable as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import ensure_nonsingular, factorial, pow_rat

__all__ = [
    "EXP_NEG",
    "EXP_POS",
    "GEOM_1_OVER_1_PLUS_T",
    "KERNEL_NAMES",
    "LOG1P",
    "NEG_LOG1P",
    "NonzeroConstantTermError",
    "ONE_MINUS_EXP_NEG",
    "PowerSeries",
    "TruncationExceededError",
    "egf_coeff",
    "kernel",
    "phi_apply",
    "phif_apply",
]


class NonzeroConstantTermError(ValueError):
    """Composition requires the inner series to vanish at t = 0."""


class TruncationExceededError(ValueError):
    """A coefficient beyond the stored truncation order was requested."""


@dataclass(frozen=True)
class PowerSeries:
    """sum(nums[n] / den * t^n / n!) truncated at order len(nums) - 1.

    The numerators and the denominator are ints, kept in lowest terms (their
    gcd divided out), so equal series compare equal.
    """

    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        if not self.nums:
            raise ValueError("a series stores at least the constant coefficient")
        if self.den <= 0:
            raise ValueError("the denominator must be positive")
        common = math.gcd(self.den, *self.nums)
        object.__setattr__(self, "nums", tuple(v // common for v in self.nums))
        object.__setattr__(self, "den", self.den // common)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def coefficient(self, i: int) -> Fraction:
        """The ordinary Taylor coefficient c_i = egf_coeff(self, i) / i!."""
        return egf_coeff(self, i) / factorial(i)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        """EGF product: binomial convolution of the numerators at the smaller
        order, over the product of the denominators."""
        f, g = self.nums, other.nums
        return PowerSeries(
            tuple(
                sum(math.comb(n, j) * f[j] * g[n - j] for j in range(n + 1) if f[j])
                for n in range(min(self.order, other.order) + 1)
            ),
            self.den * other.den,
        )

    # The product commutes. bench/tracer.py counts series products by
    # wrapping both names, so the reflected name stays bound.
    __rmul__ = __mul__

    def derivative(self) -> "PowerSeries":
        """d/dt shifts the EGF values down by one (order-0 input rejected)."""
        if self.order < 1:
            raise ValueError("derivative requires order >= 1")
        return PowerSeries(self.nums[1:], self.den)


ONE_MINUS_EXP_NEG = "one_minus_exp_neg"
LOG1P = "log1p"
NEG_LOG1P = "neg_log1p"
EXP_POS = "exp_pos"
EXP_NEG = "exp_neg"
GEOM_1_OVER_1_PLUS_T = "geom_1_over_1_plus_t"

KERNEL_NAMES = (
    ONE_MINUS_EXP_NEG,
    LOG1P,
    NEG_LOG1P,
    EXP_POS,
    EXP_NEG,
    GEOM_1_OVER_1_PLUS_T,
)


def kernel(name: str, order: int) -> PowerSeries:
    """Exact expansion of a named kernel, truncated at `order`, as EGF values
    v_n (the Taylor coefficient of t^n is v_n / n!):

    one_minus_exp_neg: v_0 = 0, v_n = (-1)^(n+1)
    log1p:             v_0 = 0, v_n = (-1)^(n+1) (n-1)!
    neg_log1p:         v_0 = 0, v_n = (-1)^n (n-1)!
    exp_pos / exp_neg: v_n = (+-1)^n
    geom_1_over_1_plus_t: v_n = (-1)^n n!
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if name == ONE_MINUS_EXP_NEG:
        nums = [0] + [(-1) ** (n + 1) for n in range(1, order + 1)]
    elif name == LOG1P:
        nums = [0] + [(-1) ** (n + 1) * factorial(n - 1) for n in range(1, order + 1)]
    elif name == NEG_LOG1P:
        nums = [0] + [(-1) ** n * factorial(n - 1) for n in range(1, order + 1)]
    elif name == EXP_POS:
        nums = [1] * (order + 1)
    elif name == EXP_NEG:
        nums = [(-1) ** n for n in range(order + 1)]
    elif name == GEOM_1_OVER_1_PLUS_T:
        nums = [(-1) ** n * factorial(n) for n in range(order + 1)]
    else:
        raise ValueError(f"unknown kernel: {name!r}")
    return PowerSeries(tuple(nums))


def _weighted_power_sum(g: PowerSeries, weights: list[Fraction]) -> PowerSeries:
    """sum_m weights[m] * g^m at g's order, on integers in EGF form.

    With g = sum G_n t^n / (L n!) and weights[m] = W_m / D, the EGF integers
    of (L g)^m follow by binomial convolution, and the sum has EGF value
    sum_m W_m L^(N-m) [(L g)^m]_n / (D L^N) at t^n / n!.
    """
    order, G, scale = g.order, g.nums, g.den
    den = math.lcm(*(w.denominator for w in weights))
    binom = [[math.comb(n, j) for j in range(n + 1)] for n in range(order + 1)]
    power = [1] + [0] * order  # EGF integers of (L g)^m, zero below index m
    total = [0] * (order + 1)
    for m, w in enumerate(weights):
        if m:
            power = [0] * m + [
                sum(binom[n][j] * G[j] * power[n - j] for j in range(1, n - m + 2))
                for n in range(m, order + 1)
            ]
        coeff = w.numerator * (den // w.denominator) * scale ** (order - m)
        for n in range(m, order + 1):
            total[n] += coeff * power[n]
    return PowerSeries(tuple(total), den * scale**order)


def _power_weights(g: PowerSeries, k: int, alpha, a) -> list[Fraction]:
    """1 / (alpha*m + a)^k for m = 0..g's order, after checking that the
    composition is defined."""
    alpha, a = Fraction(alpha), Fraction(a)
    if g.nums[0] != 0:
        raise NonzeroConstantTermError(
            "composition requires a series with zero constant term"
        )
    ensure_nonsingular(alpha, a, g.order)
    return [pow_rat(alpha * m + a, -k) for m in range(g.order + 1)]


def phi_apply(g: PowerSeries, k: int, alpha, a) -> PowerSeries:
    """sum_{m=0..order} g(t)^m / (alpha*m + a)^k, exact at g's order."""
    return _weighted_power_sum(g, _power_weights(g, k, alpha, a))


def phif_apply(g: PowerSeries, k: int, alpha, a) -> PowerSeries:
    """Like phi_apply with each m-term additionally divided by m!."""
    weights = _power_weights(g, k, alpha, a)
    return _weighted_power_sum(g, [w / factorial(m) for m, w in enumerate(weights)])


def egf_coeff(f: PowerSeries, n: int) -> Fraction:
    """v_n = n! * c_n: the coefficient in the sum(v_n t^n / n!) reading of f."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > f.order:
        raise TruncationExceededError(
            f"coefficient {n} requested but series is truncated at order {f.order}"
        )
    return Fraction(f.nums[n], f.den)
