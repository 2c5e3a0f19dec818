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


def family_by_k_recurrence(family: str, k: int, alpha, a, n_max: int) -> list[Fraction]:
    """EGF values 0..n_max of the family at k, stepped from k = 0 by the
    recurrence in k: no Stirling number and no series composition.

    With F_k = sum_m c_m g^m / (alpha m + a)^k (c_m = 1 for bernoulli, 1/m!
    for the cauchy families), alpha g d/dg + a takes F_k to F_(k-1), and
    d/dg = (1/g') d/dt makes that alpha H d/dt + a with H = g/g'. F_0 is
    e^t, 1 + t or 1/(1 + t), and H is e^t - 1 for bernoulli and
    (1 + t) ln(1 + t) for both cauchy families, with EGF values h_0 = 0,
    h_1 = 1 and h_j = 1 or (-1)^j (j-2)! for j >= 2. In EGF values:

        k <= 0: f^(k-1)_n = alpha sum_{j=1..n} C(n, j) h_j f^(k)_(n-j+1) + a f^(k)_n
        k >= 1: (alpha n + a) f^(k)_n
                    = f^(k-1)_n - alpha sum_{j=2..n} C(n, j) h_j f^(k)_(n-j+1)

    The second is triangular in n. At alpha = a = 1 the bernoulli case is
    Kaneko's (n+1) B_n^(k) = B_n^(k-1) - sum_{m=1..n-1} C(n, m-1) B_m^(k).
    """
    alpha, a = Fraction(alpha), Fraction(a)
    if family == "bernoulli":
        f = [Fraction(1)] * (n_max + 1)
        h = [0] + [1] * n_max
    else:
        h = [0, 1] + [(-1) ** j * factorial(j - 2) for j in range(2, n_max + 1)]
        if family == "cauchy1":
            f = [Fraction(int(n <= 1)) for n in range(n_max + 1)]
        else:
            f = [Fraction((-1) ** n * factorial(n)) for n in range(n_max + 1)]
    for _ in range(-k):
        f = [
            alpha * sum(comb(n, j) * h[j] * f[n - j + 1] for j in range(1, n + 1)) + a * f[n]
            for n in range(n_max + 1)
        ]
    for _ in range(k):
        previous, f = f, []
        for n in range(n_max + 1):
            tail = sum(comb(n, j) * h[j] * f[n - j + 1] for j in range(2, n + 1))
            f.append((previous[n] - alpha * tail) / (alpha * n + a))
    return f


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


def triangle_product(outer, inner, prefactor, n: int, l: int):
    """sum_{m=l..n} prefactor(n, m) outer(n, m) inner(m, l) as the direct
    triple sum, one term per m; the triangles are functions of (row, column)."""
    return sum(prefactor(n, m) * outer(n, m) * inner(m, l) for m in range(l, n + 1))


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


def derivative_corrected(family: str, n: int, k: int, alpha, a) -> Fraction:
    """The corrected closed form of the derivative coefficient D_n: THM9
    (cauchy1), THM10 (cauchy2) or THM11 (bernoulli) as README's errata state
    them, a sum over m = 1..n+1 with the triangle's column shifted to m - 1:

        cauchy1:   D_n = sum_m (-1)^(n+m+1) [n, m-1] / (alpha m + a)^k
        cauchy2:   D_n = (-1)^(n+1) sum_m [n, m-1] / (alpha m + a)^k
        bernoulli: D_n = sum_m (-1)^(n+m+1) m! {n, m-1} / (alpha m + a)^k
    """
    total = Fraction(0)
    first = stirling1_unsigned_row(n)
    for m in range(1, n + 2):
        weight = Fraction(1) / (Fraction(alpha) * m + Fraction(a)) ** k
        if family == "bernoulli":
            coeff = (-1) ** (n + m + 1) * factorial(m) * stirling2_explicit(n, m - 1)
        elif family == "cauchy1":
            coeff = (-1) ** (n + m + 1) * first[m - 1]
        else:
            coeff = (-1) ** (n + 1) * first[m - 1]
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


def scaled_weights(k: int, alpha, a, m_max: int) -> tuple[list[int], int]:
    """(W, D) with W[m] / D == 1 / (alpha m + a)^k for m = 0..m_max and D the
    least common denominator of those weights, every weight built afresh."""
    weights = [
        1 / (Fraction(alpha) * m + Fraction(a)) ** k for m in range(m_max + 1)
    ]
    den = lcm(*(w.denominator for w in weights))
    return [w.numerator * (den // w.denominator) for w in weights], den


def congruence_hypothesis(alpha, a, n: int, p: int) -> tuple[bool, str | None]:
    """(hypothesis_ok, hypothesis_note) of the congruence s_{n p} = s_0 (mod p):
    whether alpha m + a is a unit mod p, i.e. p divides neither its reduced
    numerator nor its denominator, for every m in 0..n p. Each (n, p) is
    scanned on its own."""
    for m in range(n * p + 1):
        value = Fraction(alpha) * m + Fraction(a)
        if value.numerator * value.denominator % p == 0:
            return False, f"alpha*m + a not invertible mod {p} at m = {m}"
    return True, None


def congruence_residue_under_hypothesis(family: str, n: int, k: int, a, p: int) -> int:
    """Residue mod p of member n of `family` where THM8's hypothesis holds:
    p divides alpha's numerator and a is a p-unit. Then alpha m + a = a
    (mod p) for every m, every weight is a^-k (mod p), and the three
    Stirling row sums sum_m (-1)^m m! {n m} = (-1)^n,
    sum_m (-1)^m [n m] = (-1)^n for n <= 1 and 0 for n >= 2, and
    sum_m [n m] = n! give

        bernoulli: B_n  = a^-k for every n
        cauchy1:   c_n  = a^-k for n <= 1, and 0 for n >= 2
        cauchy2:   ch_n = (-1)^n n! a^-k, which is 0 for n >= p
    """
    a = Fraction(a)
    weight = pow(a.numerator * pow(a.denominator, -1, p), -k, p)
    if family == "bernoulli":
        return weight
    if family == "cauchy1":
        return weight if n <= 1 else 0
    return (-1) ** n * factorial(n) * weight % p
