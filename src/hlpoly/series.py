"""Truncated exponential generating functions over exact integers.

A series of order N stores integer EGF numerators v_0..v_N over one positive
denominator D and stands for sum(v_n / D * t^n / n!) + O(t^(N+1)). Products
truncate to the smaller operand's order and nothing is ever zero-extended, so
a result's order is an honest statement of how many coefficients are exact.

The composition kernels (1 - e^-t, +/-ln(1+t), e^+-t, 1/(1+t)) all have
closed-form integer EGF values, written once in the `_KERNELS` table; summing
powers of a kernel with zero constant term against rational weights is exact
at any truncation order, which is what makes this module usable as an
independent oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import ensure_nonsingular, pow_rat

__all__ = [
    "KERNEL_NAMES",
    "NonzeroConstantTermError",
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
        return egf_coeff(self, i) / math.factorial(i)

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


# name -> EGF value v_n of the kernel (the Taylor coefficient of t^n is v_n / n!)
_KERNELS = {
    "one_minus_exp_neg": lambda n: (-1) ** (n + 1) if n else 0,
    "log1p": lambda n: (-1) ** (n + 1) * math.factorial(n - 1) if n else 0,
    "neg_log1p": lambda n: (-1) ** n * math.factorial(n - 1) if n else 0,
    "exp_pos": lambda n: 1,
    "exp_neg": lambda n: (-1) ** n,
    "geom_1_over_1_plus_t": lambda n: (-1) ** n * math.factorial(n),
}

KERNEL_NAMES = tuple(_KERNELS)


def kernel(name: str, order: int) -> PowerSeries:
    """Exact expansion of a named kernel, truncated at `order`, as the EGF
    values v_0..v_order that `_KERNELS` gives for `name`."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if name not in _KERNELS:
        raise ValueError(f"unknown kernel: {name!r}")
    return PowerSeries(tuple(map(_KERNELS[name], range(order + 1))))


# EGF numerators G_0..G_n of a composed series g = sum G_i t^i / (L i!) -> the
# EGF integers of the powers (L g)^m, row i holding the coefficient of t^i/i!
# for m = 0..i. The rows depend neither on L nor on the weights (k, alpha, a),
# so there is one table per exact series, kept as long as the process: a run
# of the CLI composes only the three kernels of `sequences`, at the few orders
# its grid asks for.
@functools.cache
def _power_rows(G: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Rows 0..len(G) - 1 of the power table of numerators G."""
    rows = [(1,)]
    for n in range(1, len(G)):
        row = [
            sum(math.comb(n, j) * G[j] * rows[n - j][m - 1] for j in range(1, n - m + 2))
            for m in range(1, n + 1)
        ]
        rows.append((0, *row))
    return tuple(rows)


def _weighted_power_sum(g: PowerSeries, weights: list[Fraction]) -> PowerSeries:
    """sum_m weights[m] * g^m at g's order, on integers in EGF form.

    With g = sum G_n t^n / (L n!) and weights[m] = W_m / D, the EGF integers
    of (L g)^m come from the power table, and the sum has EGF value
    sum_m W_m L^(N-m) [(L g)^m]_n / (D L^N) at t^n / n!.
    """
    order, scale = g.order, g.den
    den = math.lcm(*(w.denominator for w in weights))
    coeffs = [
        w.numerator * (den // w.denominator) * scale ** (order - m)
        for m, w in enumerate(weights)
    ]
    rows = _power_rows(g.nums)
    total = tuple(sum(c * p for c, p in zip(coeffs, rows[n])) for n in range(order + 1))
    return PowerSeries(total, den * scale**order)


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
    return _weighted_power_sum(g, [w / math.factorial(m) for m, w in enumerate(weights)])


def egf_coeff(f: PowerSeries, n: int) -> Fraction:
    """v_n = n! * c_n: the coefficient in the sum(v_n t^n / n!) reading of f."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > f.order:
        raise TruncationExceededError(
            f"coefficient {n} requested but series is truncated at order {f.order}"
        )
    return Fraction(f.nums[n], f.den)
