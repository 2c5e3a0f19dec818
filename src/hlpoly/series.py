"""Truncated formal power series over exact rationals.

A series of order N stores coefficients c_0..c_N and stands for
sum(c_i * t^i) + O(t^(N+1)). Binary operations truncate to the smaller
operand's order and nothing is ever zero-extended, so a result's order is an
honest statement of how many coefficients are exact.

The composition kernels here (1 - e^-t, +/-ln(1+t), e^+-t, 1/(1+t)) all have
closed-form rational Taylor coefficients; summing powers of a kernel with
zero constant term against rational weights is exact at any truncation order,
which is what makes this module usable as an independent oracle.
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
    "compose_powers",
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
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a series stores at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @classmethod
    def from_coeffs(cls, coeffs) -> "PowerSeries":
        return cls(tuple(coeffs))

    @classmethod
    def constant(cls, value, order: int) -> "PowerSeries":
        if order < 0:
            raise ValueError("order must be >= 0")
        return cls((Fraction(value),) + (Fraction(0),) * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Fraction:
        if i < 0:
            raise ValueError("coefficient index must be >= 0")
        if i > self.order:
            raise TruncationExceededError(
                f"coefficient {i} requested but series is truncated at order {self.order}"
            )
        return self.coeffs[i]

    def truncate(self, order: int) -> "PowerSeries":
        """Discard coefficients above `order`; never extends."""
        if order < 0:
            raise ValueError("order must be >= 0")
        if order > self.order:
            raise TruncationExceededError(
                f"cannot truncate order-{self.order} series to order {order}"
            )
        return PowerSeries(self.coeffs[: order + 1])

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(
            tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1))
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + (-other)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b != 0:
                        out[i + j] += a * b
            return PowerSeries(tuple(out))
        scalar = Fraction(other)
        return PowerSeries(tuple(c * scalar for c in self.coeffs))

    __rmul__ = __mul__

    def derivative(self) -> "PowerSeries":
        """Termwise derivative; order drops by one (order-0 input rejected)."""
        if self.order < 1:
            raise ValueError("derivative requires order >= 1")
        return PowerSeries(
            tuple((i + 1) * self.coeffs[i + 1] for i in range(self.order))
        )


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
    """Exact Taylor expansion of a named kernel, truncated at `order`.

    one_minus_exp_neg: c_0 = 0, c_n = (-1)^(n+1)/n!
    log1p:             c_0 = 0, c_n = (-1)^(n+1)/n
    neg_log1p:         c_0 = 0, c_n = (-1)^n/n
    exp_pos / exp_neg: c_n = (+-1)^n/n!
    geom_1_over_1_plus_t: c_n = (-1)^n
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if name == ONE_MINUS_EXP_NEG:
        coeffs = [Fraction(0)] + [
            Fraction((-1) ** (n + 1), factorial(n)) for n in range(1, order + 1)
        ]
    elif name == LOG1P:
        coeffs = [Fraction(0)] + [
            Fraction((-1) ** (n + 1), n) for n in range(1, order + 1)
        ]
    elif name == NEG_LOG1P:
        coeffs = [Fraction(0)] + [
            Fraction((-1) ** n, n) for n in range(1, order + 1)
        ]
    elif name == EXP_POS:
        coeffs = [Fraction(1, factorial(n)) for n in range(order + 1)]
    elif name == EXP_NEG:
        coeffs = [Fraction((-1) ** n, factorial(n)) for n in range(order + 1)]
    elif name == GEOM_1_OVER_1_PLUS_T:
        coeffs = [Fraction((-1) ** n) for n in range(order + 1)]
    else:
        raise ValueError(f"unknown kernel: {name!r}")
    return PowerSeries(tuple(coeffs[: order + 1]))


def compose_powers(g: PowerSeries, m_max: int) -> list[PowerSeries]:
    """[g^0, g^1, ..., g^m_max], each truncated at g's order.

    g must have zero constant term, so g^m has valuation >= m and powers
    beyond the truncation order vanish identically at this order.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if g.coeffs[0] != 0:
        raise NonzeroConstantTermError(
            "composition requires a series with zero constant term"
        )
    powers = [PowerSeries.constant(1, g.order)]
    for _ in range(m_max):
        powers.append(powers[-1] * g)
    return powers


def _weighted_power_sum(g: PowerSeries, weights: list[Fraction]) -> PowerSeries:
    """sum_m weights[m] * g^m at g's order, on integers in EGF form.

    With g = sum G_n t^n / (L n!) for integers G_n (L clears the EGF
    denominators of g) and weights[m] = W_m / D, the EGF integers of
    (L g)^m follow by binomial convolution, and the sum has EGF value
    sum_m W_m L^(N-m) [(L g)^m]_n / (D L^N) at t^n / n!.
    """
    order = g.order
    egf = [c * factorial(n) for n, c in enumerate(g.coeffs)]
    scale = math.lcm(*(c.denominator for c in egf))
    G = [c.numerator * (scale // c.denominator) for c in egf]
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
    common = den * scale**order
    return PowerSeries(
        tuple(Fraction(v, common * factorial(n)) for n, v in enumerate(total))
    )


def _power_weights(g: PowerSeries, k: int, alpha, a) -> list[Fraction]:
    """1 / (alpha*m + a)^k for m = 0..g's order, after checking that the
    composition is defined."""
    alpha, a = Fraction(alpha), Fraction(a)
    if g.coeffs[0] != 0:
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
    """n! * c_n: the coefficient in the sum(v_n t^n / n!) reading of f."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > f.order:
        raise TruncationExceededError(
            f"EGF coefficient {n} requested but series is truncated at order {f.order}"
        )
    return f.coeffs[n] * factorial(n)
