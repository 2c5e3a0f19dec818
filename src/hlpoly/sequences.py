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

The Stirling path dots integer coefficient rows with the weights
1/(alpha m + a)^k that `Params` keeps; each row is read from a row store, a
`functools.cache` over a row builder, and callers may share a
`coefficient_rows` or `derivative_rows` store across points. The cauchy rows
are unsigned: with E_n and O_n the even-m and odd-m halves of
sum_m [n m] / (alpha m + a)^k, c_n = (-1)^n (E_n - O_n) and
ch_n = (-1)^n (E_n + O_n), and a `Params` keeps the halves for both. The series path
builds its own weights; the series it composes are kept on `Params` apart
from the Stirling path's memos, and the Stirling path never reads them.

The derivative-coefficient functions evaluate two candidate answers to the
same question ("what sequence D_n makes prefactor(t) * sum(D_n t^n/n!)
equal the derivative of the family's generating function?"): one from a
closed-form Stirling sum, one forced term by term from the series itself.

`oracle_sequence` and `deriv_coeffs_oracle` may be given the Stirling side's
values as `known`: once the series' integers are computed, each is decided
against known[n] by `exact.decided`, so an equal entry is known[n] itself,
the only thing the two paths share. Neither asserts that they agree; the
audit reports whether they do.
"""

from __future__ import annotations

import collections
import enum
import functools
import math
import numbers
import operator
from fractions import Fraction
from typing import Callable

from .exact import decided, ensure_nonsingular, fraction, pow_rat
from .series import PowerSeries, egf_coeff, kernel, phi_apply, phif_apply
from .stirling import stirling1_unsigned, stirling2

__all__ = [
    "FAMILIES",
    "Family",
    "Params",
    "coefficient_rows",
    "deriv_coeffs_oracle",
    "deriv_coeffs_printed",
    "derivative_rows",
    "explicit_scaled",
    "explicit_sequence",
    "explicit_value",
    "explicit_values",
    "oracle_sequence",
    "row_store",
]


class Family(enum.Enum):
    BERNOULLI = "bernoulli"
    CAUCHY1 = "cauchy1"
    CAUCHY2 = "cauchy2"

    # a member is a singleton: hashed by identity, in C, not by Enum's
    # Python-level __hash__; no set of families is iterated for output
    __hash__ = object.__hash__


FAMILIES = (Family.BERNOULLI, Family.CAUCHY1, Family.CAUCHY2)


class Params:
    """Family parameters: integer k (any sign), rational alpha != 0, rational a.

    alpha and a are ints or rationals (`numbers.Rational`), kept as exact
    Fractions; a bool, a float, whose binary expansion is rarely the value
    meant, or any other type raises ValueError, as a k that is not an int
    does. alpha*m + a must stay nonzero over whichever index range a
    computation touches; that is checked per call against the largest m
    actually used.

    A Params computes the root -a/alpha and alpha*m + a in integers once, on
    construction, so `singular_index` is a comparison, and keeps what the
    functions given it compute, each once, in memos that are not fields:
    (k, alpha, a) alone fix equality, hash and repr, none of the three can be
    assigned, and `Params(p.k, p.alpha, p.a)` starts the memos empty. They are

      _prefix   the weights 1/(alpha*m + a)^k as one integer prefix over one
                denominator, (W, D), which `scaled_weights` grows;
      _weights  the same weights as reduced Fractions, for `weights`;
      _halves   the even-m and odd-m halves of the cauchy pair's unsigned
                sums, integers over D, per coefficient function, reach and n;
      _sums     Stirling sums as integers over D, per coefficient rule and
                last index, which `explicit_scaled` returns;
      _values   one Fraction per coefficient rule and n, which
                `explicit_value`, `explicit_sequence` and
                `deriv_coeffs_printed` return: families that share a rule, as
                the two cauchy families' printed one, share its Fractions;
      _series   each family's composed generating function, which only
                `oracle_sequence` and `deriv_coeffs_oracle` read.
    """

    __slots__ = (
        "k", "alpha", "a", "_line", "_root", "_prefix", "_weights", "_halves", "_sums",
        "_values", "_series",
    )

    k: int
    alpha: Fraction
    a: Fraction

    def __init__(self, k: int, alpha, a):
        self.check_k(k)
        alpha, a = self.rational_pair(alpha, a)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "a", a)
        # alpha*m + a = (P S m + R Q) / (Q S) for alpha = P/Q and a = R/S
        slope, offset = alpha.numerator * a.denominator, a.numerator * alpha.denominator
        object.__setattr__(self, "_line", (slope, offset, alpha.denominator * a.denominator))
        # the root is -offset / slope, an m >= 0 only where slope divides offset
        root, rest = divmod(-offset, slope)
        object.__setattr__(self, "_root", root if rest == 0 and root >= 0 else None)
        object.__setattr__(self, "_prefix", ([], 1))
        object.__setattr__(self, "_weights", [])
        object.__setattr__(self, "_halves", collections.defaultdict(dict))
        object.__setattr__(self, "_sums", {})
        object.__setattr__(self, "_values", collections.defaultdict(dict))
        object.__setattr__(self, "_series", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.k, self.alpha, self.a)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.k == other.k and self.alpha == other.alpha and self.a == other.a

    def __hash__(self):
        return hash((self.k, self.alpha, self.a))

    def __repr__(self):
        return f"{type(self).__qualname__}(k={self.k!r}, alpha={self.alpha!r}, a={self.a!r})"

    @staticmethod
    def check_k(k) -> None:
        """ValueError unless k is an int: a float or a bool is not an index."""
        if type(k) is not int:
            raise ValueError(f"k must be an int, got {k!r}")

    @staticmethod
    def rational_pair(alpha, a) -> tuple[Fraction, Fraction]:
        """(alpha, a) as the Fractions a Params keeps: an exact Fraction as it
        is, another rational copied, a bool, anything else or alpha == 0
        ValueError."""
        pair = []
        for name, value in (("alpha", alpha), ("a", a)):
            if type(value) is not Fraction:
                # a bool is a numbers.Rational, but True is not the 1 meant
                if type(value) is bool or not isinstance(value, numbers.Rational):
                    raise ValueError(f"{name} must be an int or a rational, got {value!r}")
                value = Fraction(value)
            pair.append(value)
        if not pair[0].numerator:
            raise ValueError("alpha must be nonzero")
        return pair[0], pair[1]

    def singular_index(self, m_max: int) -> int | None:
        """Smallest m in 0..m_max with alpha*m + a == 0, or None."""
        root = self._root
        return root if root is not None and root <= m_max else None

    def scaled_weights(self, m_max: int) -> tuple[list[int], int]:
        """(W, D) with W[m] / D == 1 / (alpha*m + a)^k for m = 0..len(W) - 1,
        len(W) > m_max, and D the least common denominator of all of W, so
        that weighted sums run over integers. W is the instance's own list:
        callers read it, by index or by zipping a row of length at most
        m_max + 1, and never change it.

        Weights are computed once per instance, as one prefix: a request past
        it builds the missing weights and rescales the kept numerators once
        to the new D, and any other request returns the prefix as it is.
        Each base alpha*m + a is one Fraction made from integers, `_line`.
        """
        weights, den = self._prefix
        if m_max >= len(weights):
            slope, offset, base_den = self._line
            new = [
                pow_rat(fraction(slope * m + offset, base_den), -self.k)
                for m in range(len(weights), m_max + 1)
            ]
            self._weights.extend(new)
            grown = math.lcm(den, *(w.denominator for w in new))
            weights = [num * (grown // den) for num in weights]
            weights += [w.numerator * (grown // w.denominator) for w in new]
            den = grown
            object.__setattr__(self, "_prefix", (weights, den))
        return weights, den

    def weights(self, m_max: int) -> list[Fraction]:
        """The weights 1/(alpha*m + a)^k for m = 0..len - 1, len > m_max, as
        the reduced Fractions that `scaled_weights` builds its prefix from:
        the instance's own list, which callers read and never change."""
        self.scaled_weights(m_max)
        return self._weights


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError("sequence index must be >= 0")


def _first_kind(n: int, m: int) -> int:
    """[n m] through this module's binding: the cauchy pair's one coefficient."""
    return stirling1_unsigned(n, m)


# family -> (c, reach) or (c, reach, of_n, of_m): member n sums
# (-1)^(n*of_n + m*of_m) c(n, m) / (alpha m + a)^k over m = 0..n + reach. The
# cauchy pair states its sign apart from its one c, [n m], and differs only in
# of_m, so one set of halves serves both; bernoulli's c, which no other family
# shares, holds its sign. An entry with a c of its own gets halves of its own.
_STIRLING_COEFF = {
    Family.BERNOULLI: (lambda n, m: (-1) ** (n + m) * math.factorial(m) * stirling2(n, m), 0),
    Family.CAUCHY1: (_first_kind, 0, 1, 1),
    Family.CAUCHY2: (_first_kind, 0, 1, 0),
}


def _ensure_nonsingular(params: Params, m_max: int) -> None:
    """Raise SingularParameterError if alpha*m + a vanishes for an m in 0..m_max."""
    if params.singular_index(m_max) is not None:
        ensure_nonsingular(params.alpha, params.a, m_max)


def row_store(coeff, reach: int = 0) -> Callable[[int], list[int]]:
    """A row store, `rows.rule` = (coeff, reach): `rows(n)`, built on its
    first request and kept as long as the store, is [coeff(n, m) for m = 0..n+reach]."""
    rows = functools.cache(lambda n: [coeff(n, m) for m in range(n + reach + 1)])
    rows.rule = coeff, reach
    return rows


def coefficient_rows(family: Family) -> Callable[[int], list[int]]:
    """A row store of one family's Stirling coefficients: `rows(n)` is
    [c(n, m) for m = 0..n], (-1)^(n+m) m! {n m} for bernoulli and the unsigned
    [n m] for the cauchy families, whose sign `_STIRLING_COEFF` states. Calls
    that share one store build each row once, whatever their parameters. The
    store reads the family's coefficients when it is made.
    """
    return row_store(*_STIRLING_COEFF[family][:2])


def _signed_sums(rule, indices, params: Params, rows) -> tuple[list[int], int]:
    """Integer sums S over the weights' common denominator D, one per n of
    `indices`. A (c, reach) rule, as bernoulli's and `_DERIV_COEFF`'s, is one
    dot product per n, S / D = sum_{m=0..n+reach} c(n, m) / (alpha m + a)^k. A
    (c, reach, of_n, of_m) rule, as the cauchy pair's, gives
    S = (-1)^(n*of_n) (E + (-1)^of_m O) for the even-m and odd-m halves E / D
    and O / D of that sum, which `params` keeps per (c, reach) and n over the
    D they were made with, so the rules on one c share them. A kept half reads
    no row; others read `rows` (ValueError unless made for (c, reach)) or a new store."""
    coeff, reach, *sign = rule
    rows = rows or row_store(coeff, reach)
    if rows.rule != (coeff, reach):
        raise ValueError("the row store was made for another coefficient rule")
    top = max(indices) + reach
    _ensure_nonsingular(params, top)
    weights, den = params.scaled_weights(top)
    if not sign:
        return [sum(map(operator.mul, rows(n), weights)) for n in indices], den
    of_n, of_m = sign
    kept = params._halves[coeff, reach]
    sums = []
    for n in indices:
        halves = kept.get(n)
        if halves is None:
            products = list(map(operator.mul, rows(n), weights))
            halves = kept[n] = sum(products[::2]), sum(products[1::2]), den
        even, odd, at = halves
        total = (even - odd if of_m else even + odd) * (den // at)
        sums.append(-total if n * of_n % 2 else total)
    return sums, den


def _stirling_sums(rule, n_max: int, params: Params, rows):
    """The sums of `_signed_sums` for n = 0..n_max, as (tuple, D), kept on
    `params` per (rule, n_max)."""
    key = rule, n_max
    kept = params._sums.get(key)
    if kept is None:
        nums, den = _signed_sums(rule, range(n_max + 1), params, rows)
        kept = params._sums[key] = tuple(nums), den
    return kept


def _stirling_values(rule, indices, params: Params, rows) -> list[Fraction]:
    """The Fractions `params` keeps per rule and n of `indices`, as a new list,
    those not kept made in one pass: for a range 0..n_max, the sums `explicit_scaled`
    reads too, and for distinct indices one `_signed_sums` call over the n not kept."""
    kept = params._values[rule]
    if type(indices) is range:
        made, (nums, den) = indices, _stirling_sums(rule, indices[-1], params, rows)
    else:
        made = [n for n in indices if n not in kept]
        nums, den = _signed_sums(rule, made, params, rows) if made else ((), 1)
    for n, num in zip(made, nums):
        if n not in kept:
            kept[n] = fraction(num, den)
    return list(map(kept.__getitem__, indices))


def explicit_scaled(
    family: Family,
    n_max: int,
    params: Params,
    rows: Callable[[int], list[int]] | None = None,
) -> tuple[tuple[int, ...], int]:
    """Stirling-sum values 0..n_max as integer numerators over one common
    denominator D: value n is num[n] / D, not reduced. The rows come from
    `rows`, a `coefficient_rows(family)` store, or from a store made for this
    call."""
    _check_index(n_max)
    return _stirling_sums(_STIRLING_COEFF[family], n_max, params, rows)


def explicit_value(
    family: Family,
    n: int,
    params: Params,
    rows: Callable[[int], list[int]] | None = None,
) -> Fraction:
    """Stirling-sum value of one family member: its coefficient row dotted
    with the weights of `params`, in halves for the cauchy families, the row
    read from `rows`, a `coefficient_rows(family)` store, or from a store made
    for this call. A value `params` keeps is read, before any check, by dict
    lookups alone, and halves the other cauchy family left build no row.
    """
    value = params._values[_STIRLING_COEFF[family]].get(n)
    return explicit_values(family, (n,), params, rows)[0] if value is None else value


def explicit_values(family: Family, indices, params: Params, rows=None) -> list[Fraction]:
    """The Fractions `explicit_value` returns at `indices`, distinct ints
    >= 0, as a new list; those `params` does not keep are made in one pass."""
    _check_index(min(indices, default=0))
    return _stirling_values(_STIRLING_COEFF[family], indices, params, rows)


def explicit_sequence(
    family: Family,
    n_max: int,
    params: Params,
    rows: Callable[[int], list[int]] | None = None,
) -> list[Fraction]:
    """Stirling-sum values 0..n_max, the sums `explicit_scaled` returns, as a
    new list of the Fractions that `explicit_value` returns."""
    _check_index(n_max)
    return _stirling_values(_STIRLING_COEFF[family], range(n_max + 1), params, rows)


# family -> (kernel name, composition) of its defining generating function,
# and the EGF values v_n of the series that undoes the prefactor of its
# derivative display: e^t (1, 1, 1, ...) for bernoulli's e^-t, and 1 + t
# (1, 1, 0, ...) for the cauchy families' 1/(1+t)
_SERIES_FOR = {
    Family.BERNOULLI: ("one_minus_exp_neg", phi_apply, lambda n: 1),
    Family.CAUCHY1: ("log1p", phif_apply, lambda n: int(n < 2)),
    Family.CAUCHY2: ("neg_log1p", phif_apply, lambda n: int(n < 2)),
}


def _family_series(family: Family, order: int, params: Params) -> PowerSeries:
    """The family's generating function to order `order` or beyond, kept on
    `params`; its coefficients up to `order` are exact whatever its order,
    since term m of the composition starts at t^m.

    A new composition goes one order further than asked, unless alpha*m + a
    vanishes there, so that the derivative coefficients at the same point
    reuse what the values composed. A request at or below the kept order
    returns the kept series.
    """
    kept = params._series.get(family)
    if kept is None or kept.order < order:
        name, compose, _ = _SERIES_FOR[family]
        top = order + 1 if params.singular_index(order + 1) is None else order
        kept = params._series[family] = compose(
            kernel(name, top), params.k, params.alpha, params.a
        )
    return kept


def oracle_sequence(
    family: Family, n_max: int, params: Params, known: list[Fraction] | None = None
) -> list[Fraction]:
    """EGF coefficients 0..n_max read off the defining generating function.

    Composition with a zero-constant-term kernel is exact at order n_max, so
    no guard digits are needed; the result is independent of the
    Stirling-sum path. Each is a new Fraction, but where `known`, n_max + 1
    Fractions, is given and known[n] is equal, it is known[n] itself.
    """
    _check_index(n_max)
    f = _family_series(family, n_max, params)
    if known is None:
        return [egf_coeff(f, n) for n in range(n_max + 1)]
    return decided(known, f.nums[: n_max + 1], f.den)


def _cauchy_deriv_coeff(n: int, m: int) -> int:
    return (-1) ** (n + m) * m * stirling1_unsigned(n, m)


# family -> ((n, m) -> integer coefficient of 1/(alpha m + a)^k in the printed
# D_n, reach): D_n sums m = 0..n + reach, one dot product, as no twin shares it
_DERIV_COEFF = {
    Family.BERNOULLI: (lambda n, m: math.factorial(m) * stirling2(n, m - 1), 1),
    Family.CAUCHY1: (_cauchy_deriv_coeff, 0),
    Family.CAUCHY2: (_cauchy_deriv_coeff, 0),
}


def derivative_rows(family: Family) -> Callable[[int], list[int]]:
    """A row store of one family's printed derivative coefficients: `rows(n)`
    is the list of integer coefficients of 1/(alpha m + a)^k in D_n, m = 0..n
    for the cauchy families and 0..n+1 for bernoulli. It reads the family's
    coefficients when it is made, as `coefficient_rows` does."""
    return row_store(*_DERIV_COEFF[family])


def deriv_coeffs_printed(
    family: Family,
    n_max: int,
    params: Params,
    rows: Callable[[int], list[int]] | None = None,
) -> list[Fraction]:
    """The closed-form derivative coefficients, evaluated exactly as written:

        cauchy1/cauchy2: D_n = sum_{m=1..n}   [n m] m (-1)^(n+m) / (alpha m + a)^k
        bernoulli:       D_n = sum_{m=1..n+1} {n m-1} m! / (alpha m + a)^k

    The rows come from `rows`, a `derivative_rows(family)` store, or from a
    store made for this call.
    """
    _check_index(n_max)
    return _stirling_values(_DERIV_COEFF[family], range(n_max + 1), params, rows)


def deriv_coeffs_oracle(
    family: Family, n_max: int, params: Params, known: list[Fraction] | None = None
) -> list[Fraction]:
    """Derivative coefficients forced by the generating function itself.

    With G the family's series, this returns the EGF coefficients of
    (1+t) * G'(t) for the cauchy families and of e^t * G'(t) for the
    bernoulli family, i.e. the unique sequence making the corresponding
    1/(1+t)- or e^-t-prefactor display of d/dt G true. `known` is read as
    `oracle_sequence` reads it.
    """
    _check_index(n_max)
    dg = _family_series(family, n_max + 1, params).derivative()
    inverse = _SERIES_FOR[family][2]
    product = PowerSeries(tuple(map(inverse, range(n_max + 1)))) * dg
    if known is None:
        return [egf_coeff(product, n) for n in range(n_max + 1)]
    return decided(known, product.nums, product.den)
