"""Deliberately naive reference computations used as independent oracles.

Nothing here imports from hlpoly: expected values are recomputed from first
principles with plain lists of Fractions, so a test that compares the
package against these helpers is a genuine two-path check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm


def mul_trunc(f: list[Fraction], g: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, a in enumerate(f[: order + 1]):
        if a == 0:
            continue
        for j, b in enumerate(g[: order + 1 - i]):
            out[i + j] += a * b
    return out


def compose_powers(g: list[Fraction], m_max: int) -> list[list[Fraction]]:
    """[g^0, g^1, ..., g^m_max] as ordinary coefficient lists, each truncated
    at g's order. g must have zero constant term, so g^m has valuation >= m
    and powers beyond the truncation order vanish at this order."""
    if g[0] != 0:
        raise ValueError("composition requires a series with zero constant term")
    order = len(g) - 1
    powers = [[Fraction(1)] + [Fraction(0)] * order]
    for _ in range(m_max):
        powers.append(mul_trunc(powers[-1], g, order))
    return powers


def to_egf(coeffs: list[Fraction]) -> tuple[tuple[int, ...], int]:
    """Ordinary coefficients c_n as (nums, den): integer EGF numerators over
    one positive denominator, with nums[n] / den == c_n * n!."""
    values = [Fraction(c) * factorial(n) for n, c in enumerate(coeffs)]
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def taylor(name: str, order: int) -> list[Fraction]:
    if name == "one_minus_exp_neg":
        return [Fraction(0)] + [
            -Fraction((-1) ** n, factorial(n)) for n in range(1, order + 1)
        ]
    if name == "log1p":
        return [Fraction(0)] + [
            Fraction((-1) ** (n + 1), n) for n in range(1, order + 1)
        ]
    if name == "neg_log1p":
        return [Fraction(0)] + [Fraction((-1) ** n, n) for n in range(1, order + 1)]
    if name == "exp_pos":
        return [Fraction(1, factorial(n)) for n in range(order + 1)]
    if name == "exp_neg":
        return [Fraction((-1) ** n, factorial(n)) for n in range(order + 1)]
    if name == "geom_1_over_1_plus_t":
        return [Fraction((-1) ** n) for n in range(order + 1)]
    raise ValueError(name)


_FAMILY_KERNEL = {
    "bernoulli": ("one_minus_exp_neg", False),
    "cauchy1": ("log1p", True),
    "cauchy2": ("neg_log1p", True),
}


def family_egf(family: str, k: int, alpha, a, n_max: int) -> list[Fraction]:
    """EGF coefficients 0..n_max of the family's defining series, expanded
    term by term from the definition."""
    kernel_name, divide_by_mfact = _FAMILY_KERNEL[family]
    g = taylor(kernel_name, n_max)
    acc = [Fraction(0)] * (n_max + 1)
    power = [Fraction(1)] + [Fraction(0)] * n_max
    for m in range(n_max + 1):
        weight = Fraction(1) / (Fraction(alpha) * m + Fraction(a)) ** k
        if divide_by_mfact:
            weight /= factorial(m)
        for i in range(n_max + 1):
            acc[i] += power[i] * weight
        power = mul_trunc(power, g, n_max)
    return [acc[n] * factorial(n) for n in range(n_max + 1)]


def stirling2_explicit(n: int, m: int) -> int:
    """Second kind via inclusion-exclusion (no recurrence)."""
    if m < 0 or m > n:
        return 0
    total = sum((-1) ** j * comb(m, j) * (m - j) ** n for j in range(m + 1))
    assert total % factorial(m) == 0
    return total // factorial(m)


def stirling1_unsigned_row(n: int) -> list[int]:
    """Unsigned first kind via the rising factorial x(x+1)...(x+n-1):
    [n m] is the coefficient of x^m."""
    coeffs = [1]  # polynomial 1
    for i in range(n):
        new = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            new[j + 1] += c
            new[j] += i * c
        coeffs = new
    return coeffs + [0] * (n + 1 - len(coeffs))


def family_closed_form(family: str, n: int, k: int, alpha, a) -> Fraction:
    """The family's Stirling-sum formula at index n, with both triangles
    taken from the recurrence-free helpers above and plain Fraction sums."""
    total = Fraction(0)
    first = stirling1_unsigned_row(n)
    for m in range(n + 1):
        weight = Fraction(1) / (Fraction(alpha) * m + Fraction(a)) ** k
        if family == "bernoulli":
            coeff = (-1) ** (n + m) * factorial(m) * stirling2_explicit(n, m)
        elif family == "cauchy1":
            coeff = (-1) ** (n + m) * first[m]
        else:
            coeff = (-1) ** n * first[m]
        total += coeff * weight
    return total


def bell_numbers(n_max: int) -> list[int]:
    """Bell triangle recurrence, independent of any Stirling table."""
    out = [1]
    row = [1]
    for _ in range(n_max):
        new_row = [row[-1]]
        for value in row:
            new_row.append(new_row[-1] + value)
        out.append(new_row[0])
        row = new_row
    return out
