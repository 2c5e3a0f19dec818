"""Truncated exponential generating functions over exact integers.

A series of order N stores integer EGF numerators v_0..v_N over one positive
denominator D and stands for sum(v_n / D * t^n / n!) + O(t^(N+1)). Products
truncate to the smaller operand's order and nothing is ever zero-extended, so
a result's order is an honest statement of how many coefficients are exact.

The composition kernels (1 - e^-t, +/-ln(1+t), e^+-t, 1/(1+t)) all have
closed-form integer EGF values, written once in the `_KERNELS` table; summing
powers of a kernel with zero constant term against rational weights is exact
at any truncation order, which is what makes this module usable as an
independent oracle. That sum is integer work from the parameters up: the
weights 1 / (alpha*m + a)^k are integers over one denominator, built here from
the integer form of alpha*m + a, and the powers are the partial Bell rows of
the kernel's EGF integers, one table per series.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .exact import ensure_nonsingular

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


class PowerSeries:
    """sum(nums[n] / den * t^n / n!) truncated at order len(nums) - 1.

    The numerators and the denominator are ints, kept in lowest terms (their
    gcd divided out), so equal series compare equal. A series is a value:
    (nums, den) alone fix equality, hash and repr, and neither can be
    assigned after construction.
    """

    __slots__ = ("nums", "den")

    nums: tuple[int, ...]
    den: int

    def __init__(self, nums: tuple[int, ...], den: int = 1):
        if not nums:
            raise ValueError("a series stores at least the constant coefficient")
        if den <= 0:
            raise ValueError("the denominator must be positive")
        common = math.gcd(den, *nums)
        if common != 1:
            nums, den = tuple(v // common for v in nums), den // common
        elif type(nums) is not tuple:
            nums = tuple(nums)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.nums, self.den)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"{type(self).__qualname__}(nums={self.nums!r}, den={self.den!r})"

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def coefficient(self, i: int) -> Fraction:
        """The ordinary Taylor coefficient c_i = egf_coeff(self, i) / i!."""
        return egf_coeff(self, i) / math.factorial(i)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        """EGF product: binomial convolution of the numerators at the smaller
        order, over the product of the denominators. Only the nonzero terms
        of the left factor are visited: a nonzero f_j adds C(n, j) f_j g_(n-j)
        to every coefficient n >= j."""
        order = min(self.order, other.order)
        g = other.nums
        total = [0] * (order + 1)
        for j, f in enumerate(self.nums[: order + 1]):
            if f:
                for n in range(j, order + 1):
                    total[n] += math.comb(n, j) * f * g[n - j]
        return PowerSeries(tuple(total), self.den * other.den)

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
    values v_0..v_order that `_KERNELS` gives for `name`. The series is built
    once per value rule and order and kept as long as the process, so calls
    share one immutable object; a rule put in `_KERNELS` later gets its own."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if name not in _KERNELS:
        raise ValueError(f"unknown kernel: {name!r}")
    return _expansion(_KERNELS[name], order)


@functools.cache
def _expansion(rule, order: int) -> PowerSeries:
    """The series of EGF values rule(0)..rule(order)."""
    return PowerSeries(tuple(map(rule, range(order + 1))))


# EGF numerators G_0..G_n of a composed series g = sum G_i t^i / (L i!) -> its
# partial Bell rows (Comtet 1974, section 3.3): row n holds the EGF integers
# B(n, m) = [(L g)^m / m!]_n for m = 0..n, from B(0, 0) = 1 and
# B(n, m) = sum_j C(n-1, j-1) G_j B(n-j, m-1). The rows depend neither on L nor
# on the weights (k, alpha, a), so there is one table per exact series, kept as
# long as the process: a run of the CLI composes only the three kernels of
# `sequences`, at the few orders its grid asks for.
@functools.cache
def _bell_rows(G: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Rows 0..len(G) - 1 of the partial Bell table of numerators G."""
    rows = [(1,)]
    for n in range(1, len(G)):
        # C(n-1, j-1) G_j, shared by every m of row n
        steps = [0, *(math.comb(n - 1, j - 1) * G[j] for j in range(1, n + 1))]
        row = [
            sum(steps[j] * rows[n - j][m - 1] for j in range(1, n - m + 2))
            for m in range(1, n + 1)
        ]
        rows.append((0, *row))
    return tuple(rows)


def _weighted_power_sum(g: PowerSeries, weights: list[int], den: int) -> PowerSeries:
    """sum_m weights[m] / den * (g^m / m!) at g's order, on integers in EGF form.

    With g = sum G_n t^n / (L n!) and weights[m] = W_m, the Bell rows give the
    EGF integers of (L g)^m / m!, and the sum has EGF value
    sum_m W_m L^(N-m) B(n, m) / (den L^N) at t^n / n!.
    """
    order, scale = g.order, g.den
    coeffs = [w * scale ** (order - m) for m, w in enumerate(weights)]
    rows = _bell_rows(g.nums)
    total = tuple(sum(map(operator.mul, coeffs, rows[n])) for n in range(order + 1))
    return PowerSeries(total, den * scale**order)


def _power_weights(g: PowerSeries, k: int, alpha, a) -> tuple[list[int], int]:
    """Integers W_0..W_N and D > 0 with W_m / D = 1 / (alpha*m + a)^k for
    m = 0..N, g's order, after checking that the composition is defined.

    With alpha*m + a = u_m / Q for integers u_m = P m + R and Q > 0, a k > 0
    puts every weight over D = L^k, L = lcm |u_m|, as W_m = Q^k (L / u_m)^k
    (u_m divides L, so its sign stays exact); a k <= 0 gives W_m = u_m^|k|
    over D = Q^|k|.
    """
    # an exact Fraction is used as it is; only another type is copied
    if type(alpha) is not Fraction:
        alpha = Fraction(alpha)
    if type(a) is not Fraction:
        a = Fraction(a)
    if g.nums[0] != 0:
        raise NonzeroConstantTermError(
            "composition requires a series with zero constant term"
        )
    q = math.lcm(alpha.denominator, a.denominator)
    p, r = alpha.numerator * (q // alpha.denominator), a.numerator * (q // a.denominator)
    u = [p * m + r for m in range(g.order + 1)]
    # alpha*m + a vanishes in 0..N exactly where some u_m does (p = 0 too)
    if 0 in u:
        ensure_nonsingular(alpha, a, g.order)
    if k > 0:
        lcm = math.lcm(*u)
        return [q**k * (lcm // v) ** k for v in u], lcm**k
    return [v**-k for v in u], q**-k


def phi_apply(g: PowerSeries, k: int, alpha, a) -> PowerSeries:
    """sum_{m=0..order} g(t)^m / (alpha*m + a)^k, exact at g's order."""
    weights, den = _power_weights(g, k, alpha, a)
    return _weighted_power_sum(
        g, [w * math.factorial(m) for m, w in enumerate(weights)], den
    )


def phif_apply(g: PowerSeries, k: int, alpha, a) -> PowerSeries:
    """Like phi_apply with each m-term additionally divided by m!."""
    return _weighted_power_sum(g, *_power_weights(g, k, alpha, a))


def egf_coeff(f: PowerSeries, n: int) -> Fraction:
    """v_n = n! * c_n: the coefficient in the sum(v_n t^n / n!) reading of f."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > f.order:
        raise TruncationExceededError(
            f"coefficient {n} requested but series is truncated at order {f.order}"
        )
    return Fraction(f.nums[n], f.den)
