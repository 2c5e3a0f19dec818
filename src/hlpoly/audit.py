"""Grid audits of the catalogued identities, with exact verdicts.

Every check is exact rational (or residue) arithmetic: a point either HOLDS,
FAILS with the two unequal values as witness, or is UNDEFINED with a reason
code when the statement is not evaluable there (singular parameters, or a
denominator a chosen prime divides).

Identity catalogue and labels:

    THM1/THM2/THM3    Stirling-sum formula vs generating-function expansion,
                      one per family
    THM4/THM5/THM6    Stirling-transform collapses of the three families
    EQ9..EQ12         double-sum interchange identities between families
    THM8_C1/C2/B      index-times-prime congruences s_{np} = s_0 (mod p)
    THM9/THM10/THM11  closed-form derivative coefficients vs the series side
    STIRLING_ORTHO    signed orthogonality of the two Stirling triangles

Reports are deterministic: rows are produced in canonical point order
(k, alpha, a, then the indices), not sorted afterwards, whatever order the
grid lists its values in. No timestamps or environment data are recorded, and
rerunning the same grid reproduces the same report, which the CLI renders to
the same bytes.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Callable, NamedTuple

from .exact import NonreducibleDenominatorError, decided, fraction, is_prime, mod_reduce
from .sequences import (
    Family,
    Params,
    coefficient_rows,
    deriv_coeffs_oracle,
    deriv_coeffs_printed,
    derivative_rows,
    explicit_scaled,
    explicit_sequence,
    explicit_value,
    explicit_values,
    oracle_sequence,
    row_store,
)
from .stirling import stirling1_unsigned, stirling2

__all__ = [
    "AuditReport",
    "CATALOGUE",
    "DEFAULT_GRID",
    "FAILS",
    "GridSpec",
    "HOLDS",
    "NONREDUCIBLE_DENOMINATOR",
    "PREFACTOR_EXPONENTS",
    "PREFACTOR_POWERS",
    "P_DIVIDES_ALPHA",
    "Point",
    "SINGULAR_PARAMETER",
    "UNDEFINED",
    "Verdict",
    "duality_prefactor",
    "exit_code",
    "run_identity",
]

HOLDS = "HOLDS"
FAILS = "FAILS"
UNDEFINED = "UNDEFINED"

SINGULAR_PARAMETER = "SINGULAR_PARAMETER"
NONREDUCIBLE_DENOMINATOR = "NONREDUCIBLE_DENOMINATOR"
P_DIVIDES_ALPHA = "P_DIVIDES_ALPHA"


class Verdict(NamedTuple):
    """Outcome of one identity check at one grid point.

    FAILS always carries the unequal (lhs, rhs) pair; UNDEFINED always
    carries a reason code. lhs/rhs are Fractions for value identities and
    plain ints (residues; the modulus sits in the point) for congruences.
    A HOLDS verdict carries one object as both lhs and rhs. The hypothesis
    fields are populated only by congruence checks.

    A Verdict is an immutable named tuple, built at the cost of a tuple, that
    iterates over its fields in the order above and equals a plain tuple of
    them. In one command the identities at a point share that point's dict,
    so treat it as read-only.
    """

    status: str
    point: dict
    lhs: Fraction | int | None = None
    rhs: Fraction | int | None = None
    reason: str | None = None
    hypothesis_ok: bool | None = None
    hypothesis_note: str | None = None


class AuditReport:
    """One identity's verdicts, in the order its check made them. Reports
    with equal identities and equal verdict lists compare equal; a report,
    whose verdict list can change, is not hashable."""

    __slots__ = ("identity", "verdicts")

    def __init__(self, identity: str, verdicts: list[Verdict]):
        self.identity = identity
        self.verdicts = verdicts

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.identity == other.identity and self.verdicts == other.verdicts

    def __repr__(self):
        return f"{type(self).__qualname__}(identity={self.identity!r}, verdicts={self.verdicts!r})"

    @property
    def summary(self) -> dict[str, int]:
        counts = {HOLDS: 0, FAILS: 0, UNDEFINED: 0}
        for v in self.verdicts:
            counts[v.status] += 1
        return {status.lower(): count for status, count in counts.items()}


def exit_code(reports) -> int:
    """0 if everything HOLDS, 1 on any FAILS, 2 for a HOLDS/UNDEFINED mix."""
    statuses = {v.status for r in reports for v in r.verdicts}
    if FAILS in statuses:
        return 1
    if UNDEFINED in statuses:
        return 2
    return 0


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------
# Each CATALOGUE entry is a check, rows(label, family, grid, points,
# prefactor), that gives a whole grid's verdicts, `points` being the grid's
# `Point` records in canonical order, as `GridSpec.points()` lists them. It
# takes the row stores it reads when it starts, so that the run's points share
# them; a store's `store(n)` is row n, built on its first request. The stores
# of family coefficients live as long as the run. The triangle products and
# collapse rows depend on no (k, alpha, a) and live as long as the process,
# one store per tuple of the functions the run read when it started, so a
# patched table entry or binding gets fresh rows.


class Point(NamedTuple):
    """One grid point of a command, shared by every label run on its list:
    `params` keeps the point's values, `index` the value identities' point
    dicts by n, read-only, and `plans` THM8's plan per (multipliers, primes),
    which `_congruence_plan` builds."""

    params: Params
    index: list[dict]
    plans: dict


def _value_rows(grid: GridSpec, points: list[Point], reach: int, sides) -> list[Verdict]:
    """The rows of a value identity, n = 0..grid.n_max at each of `points`.

    Index n touches alpha*m + a up to m = n + reach. `sides(params, last)`
    returns the identity's two sides at a point, each the values at
    n = 0..last, for `last` the largest evaluable index; it is not called
    when no index is, and decides the right side: where the two are equal,
    its entry is the left side's object, and only then does the row HOLD.
    The indices after `last` are SINGULAR_PARAMETER. A point's `index` grows
    to n_max before its rows are made, so no row is dropped, and keeps its
    keys in canonical order. tuple.__new__ makes each row at the cost of a
    tuple, equal to Verdict(status, point, x, y).
    """
    n_max = grid.n_max
    new = tuple.__new__
    verdicts = []
    for params, index, _ in points:
        s = params.singular_index(n_max + reach)
        last = n_max if s is None else max(-1, min(n_max, s - 1 - reach))
        if len(index) <= n_max:
            k, alpha, a = params.k, params.alpha, params.a
            index += [
                {"k": k, "alpha": alpha, "a": a, "n": n} for n in range(len(index), n_max + 1)
            ]
        if last >= 0:
            verdicts += [
                new(Verdict, (HOLDS if y is x else FAILS, point, x, y, None, None, None))
                for point, x, y in zip(index, *sides(params, last))
            ]
        verdicts += [
            new(Verdict, (UNDEFINED, point, None, None, SINGULAR_PARAMETER, None, None))
            for point in index[last + 1 : n_max + 1]
        ]
    return verdicts


def _explicit_rows(label, family, grid, points, prefactor) -> list[Verdict]:
    """Stirling-sum path vs generating-function path, index by index; the
    series side is decided against the sums as `known`."""
    coefficients = coefficient_rows(family)

    def sides(params, last):
        lhs = explicit_sequence(family, last, params, coefficients)
        return lhs, oracle_sequence(family, last, params, known=lhs)

    return _value_rows(grid, points, 0, sides)


def _derivative_rows(label, family, grid, points, prefactor) -> list[Verdict]:
    """Closed-form derivative coefficients vs series-forced ones, index by
    index, the series side decided against the printed ones. FAILS rows
    carry the (printed, series) pair as lhs/rhs witness."""
    coefficients = derivative_rows(family)

    def sides(params, last):
        printed = deriv_coeffs_printed(family, last, params, coefficients)
        return printed, deriv_coeffs_oracle(family, last, params, known=printed)

    return _value_rows(grid, points, 1, sides)


# THM4-THM6 and EQ9-EQ12 apply Stirling rows to a family's values, read once
# per grid point up to the last defined index, in `_transformed`. Their family
# rules are table rows read when a run starts: `_COLLAPSE_SHAPE`, `_DUALITY_SHAPE`.


def _transformed(rows, family, last, params, family_rows) -> tuple[list, int]:
    """sum_m rows(n)[m] s_m for n = 0..last, s the family's Stirling-sum
    values, their coefficients read from the run's `family_rows` store, as
    (T, D): value n is T[n] / D, not reduced. D is the denominator of the
    family's sums and T[n] row n of the row store `rows` dotted with their
    numerators, an int for integer rows (a Fraction for rows of Fractions,
    as a variant prefactor's (m!)^-1 makes)."""
    nums, den = explicit_scaled(family, last, params, family_rows)
    return [sum(map(operator.mul, rows(n), nums)) for n in range(last + 1)], den


# THM4-THM6's stores of triangle rows, one per triangle function: the CLI
# reaches two, and the bound keeps a caller's new functions from piling up
_triangle_rows = functools.lru_cache(maxsize=8)(row_store)

_COLLAPSE_SHAPE = {
    # family -> (stirling triangle T, right-hand factor f) of
    # sum_m T(n, m) s_m = f(n) / (alpha n + a)^k
    Family.BERNOULLI: (stirling1_unsigned, math.factorial),
    Family.CAUCHY1: (stirling2, lambda n: 1),
    Family.CAUCHY2: (stirling2, lambda n: (-1) ** n),
}


def _orthogonality_rows(label, family, grid, points, prefactor) -> list[Verdict]:
    """One family's Stirling-transform collapse at n = 0..n_max:

        bernoulli: sum_m [n m] B_m  = n! / (alpha n + a)^k
        cauchy1:   sum_m {n m} c_m  = 1 / (alpha n + a)^k
        cauchy2:   sum_m {n m} ch_m = (-1)^n / (alpha n + a)^k

    The store of triangle rows, `collapse(n)` = [T(n, m) for m = 0..n], is
    the process's one store for the triangle function the run reads, and
    builds each row on its first request. The right side is the point's
    weight Fraction, kept on `params`, where f(n) is 1, and its product with
    f(n), built from integers, otherwise; the left side, integer
    sums over one denominator, is decided against it, so a HOLDS row keeps
    the right side's Fraction as both.
    """
    triangle, factor = _COLLAPSE_SHAPE[family]
    collapse = _triangle_rows(triangle)
    family_rows = coefficient_rows(family)

    def sides(params, last):
        rhs = [
            w if f == 1 else fraction(w.numerator * f, w.denominator)
            for w, f in zip(params.weights(last), map(factor, range(last + 1)))
        ]
        sums = _transformed(collapse, family, last, params, family_rows)
        return decided(rhs, *sums), rhs

    return _value_rows(grid, points, 0, sides)


# The closed prefactor family of EQ9..EQ12, (-1)^EXP * (m!)^POWER: each EXP
# token's sign exponent as (coefficient of m, coefficient of n), and the
# powers of m!. It holds every printed and every corrected prefactor.
PREFACTOR_EXPONENTS = {"0": (0, 0), "m": (1, 0), "n": (0, 1), "m+n": (1, 1)}
PREFACTOR_POWERS = (-1, 0, 1)


@functools.lru_cache(maxsize=None, typed=True)  # typed: a bool or float power is checked
def duality_prefactor(exp: str, power: int) -> Callable[[int, int], int | Fraction]:
    """(-1)^exp * (m!)^power as a function of (n, m), for an EXP token of
    PREFACTOR_EXPONENTS and a power in PREFACTOR_POWERS: an int for power 0
    or 1, a Fraction for -1. Each (exp, power) gives one function object, so
    its triangle products are built once per process. A power that is not an
    int, such as 1.0 or True, is refused."""
    if exp not in PREFACTOR_EXPONENTS or type(power) is not int or power not in PREFACTOR_POWERS:
        raise ValueError(f"no prefactor (-1)^({exp}) * (m!)^{power} in the family")
    of_m, of_n = PREFACTOR_EXPONENTS[exp]

    def prefactor(n: int, m: int) -> int | Fraction:
        sign = -1 if (of_m * m + of_n * n) % 2 else 1
        if power < 0:
            return Fraction(sign, math.factorial(m))
        return sign * math.factorial(m) ** power

    return prefactor


_DUALITY_SHAPE = {
    # identity -> (summed family, stirling triangle, printed prefactor)
    "EQ9": (Family.CAUCHY1, stirling2, duality_prefactor("m+n", 1)),
    "EQ10": (Family.CAUCHY2, stirling2, duality_prefactor("m", 1)),
    "EQ11": (Family.BERNOULLI, stirling1_unsigned, duality_prefactor("m+n", 1)),
    "EQ12": (Family.BERNOULLI, stirling1_unsigned, duality_prefactor("n", 1)),
}


# At most 26 keys are reachable from the CLI: the 12 prefactors of the family
# on each of the two triangle pairs (the printed four among them) and
# STIRLING_ORTHO's two forms. The bound keeps a caller that passes a new
# prefactor on every run from growing the cache without limit.
@functools.lru_cache(maxsize=32)
def _product_rows(outer, inner, prefactor):
    """A row store of two Stirling triangles' product: `store(n)` is row n,
    l = 0..n, of c(n, l) = sum_{m=l..n} prefactor(n, m) outer(n, m) inner(m, l).
    One store per (outer, inner, prefactor) object triple, kept for the
    process. Each row is built once, on its first request, so a prefactor
    object is called once per (n, m) with outer(n, m) != 0 and only for rows
    someone asks for, however many runs read it.
    """

    @functools.cache
    def store(n: int) -> list:
        row = [0] * (n + 1)
        for m in range(n + 1):
            outer_nm = outer(n, m)
            if outer_nm:
                weight = prefactor(n, m) * outer_nm
                for l in range(m + 1):
                    row[l] += weight * inner(m, l)
        return row

    return store


def _duality_rows(label, family, grid, points, prefactor) -> list[Verdict]:
    """One double-sum interchange identity at n = 0..n_max:

        EQ9:  B_n  = sum_{l,m<=n} (-1)^(m+n) m! {n m} {m l} c_l
        EQ10: B_n  = sum_{l,m<=n} (-1)^m     m! {n m} {m l} ch_l
        EQ11: c_n  = sum_{l,m<=n} (-1)^(m+n) m! [n m] [m l] B_l
        EQ12: ch_n = sum_{l,m<=n} (-1)^n     m! [n m] [m l] B_l

    The double sum is evaluated as sum_l c_l x_l over the summed family's
    values x_l, with row n of the c_l read from the process's store of the
    triangle products under the run's prefactor; both families' coefficients
    come from the run's stores.
    The left side is the Fractions that `params` keeps; the double sums,
    integer numerators over one denominator, are decided against them, so
    a HOLDS row keeps the left side's Fraction as both and builds none.
    """
    summed_family, triangle, printed = _DUALITY_SHAPE[label]
    products = _product_rows(triangle, triangle, prefactor or printed)
    lhs_rows, summed_rows = coefficient_rows(family), coefficient_rows(summed_family)

    def sides(params, last):
        lhs = explicit_sequence(family, last, params, lhs_rows)
        sums = _transformed(products, summed_family, last, params, summed_rows)
        return lhs, decided(lhs, *sums)

    return _value_rows(grid, points, 0, sides)


def _hypothesis_flags(params: Params, p: int) -> tuple[bool, str | None]:
    """Whether alpha*m + a is invertible mod p for every m, as the verdict
    fields (hypothesis_ok, hypothesis_note), the note naming the first m where
    it is not. m = 0..p-1 decides it: if p divides neither denominator the
    residue has period p in m, and if p divides one, m = 0 or m = 1 is already
    not invertible.

    With alpha = P/Q and a = R/S, alpha*m + a = (P S m + R Q) / (Q S), the
    integer form `params` keeps, and p is tested against that numerator and
    denominator once divided by their gcd, the reduced ones, in integers."""
    slope, offset, den = params._line
    for m in range(p):
        num = slope * m + offset
        common = math.gcd(num, den)
        if num // common % p == 0 or den // common % p == 0:
            return False, f"alpha*m + a not invertible mod {p} at m = {m}"
    return True, None


def _congruence_plan(record: Point, grid: GridSpec) -> list[tuple]:
    """THM8's rows at one point, in canonical (n, p) order, as (n*p, point,
    reason, flags): the point dict, read-only, the reason s_{n*p} is not
    computed, or None where it is, and the hypothesis flags of p, one pair
    per prime. `record` keeps the plan per (multipliers, primes), so THM8_C1,
    THM8_C2 and THM8_B share it, and building it sizes the weight prefix
    once, to the largest evaluable n*p."""
    key = grid.multipliers, grid.primes
    plan = record.plans.get(key)
    if plan is None:
        params = record.params
        k, alpha, a = params.k, params.alpha, params.a
        flags = {p: _hypothesis_flags(params, p) for p in grid.primes}
        plan = record.plans[key] = [
            (
                n * p,
                {"k": k, "alpha": alpha, "a": a, "n": n, "p": p},
                P_DIVIDES_ALPHA if alpha.numerator % p == 0
                else SINGULAR_PARAMETER if params.singular_index(n * p) is not None
                else None,
                flags[p],
            )
            for n in sorted(grid.multipliers)
            for p in sorted(grid.primes)
        ]
        params.scaled_weights(max((index for index, _, why, _ in plan if not why), default=-1))
    return plan


def _congruence_rows(label, family, grid, points, prefactor) -> list[Verdict]:
    """s_{n*p} = s_0 (mod p) for each multiplier n and prime p of the grid.

    Congruences are stated for k >= 1 only; other k give no rows. Both
    sequence values are computed exactly, from the run's store of Stirling
    coefficient rows, and reduced mod p: s_0 and each evaluable row's s_{n*p}
    in one pass per point, kept on `params`, and none where no row is
    evaluable. A point is UNDEFINED, never a pass or a fail, when p divides
    alpha (the standing assumption fails), alpha*m + a vanishes at an
    m <= n*p, or p divides a denominator (the congruence is not evaluable). Every verdict also records whether (alpha*m + a) stays
    invertible mod p, the assumption under which the congruence is claimed.
    The flag is reported, never used to suppress a result. Rows are made as
    `_value_rows` makes them, by tuple.__new__.
    """
    coefficients = coefficient_rows(family)
    new = tuple.__new__
    verdicts = []
    for record in points:
        params = record.params
        if params.k < 1:
            continue
        plan = _congruence_plan(record, grid)
        evaluable = sorted({index for index, _, why, _ in plan if not why})
        if evaluable:
            explicit_values(family, [0, *evaluable], params, coefficients)
        for index, point, why, (ok, note) in plan:
            if why:
                verdicts.append(new(Verdict, (UNDEFINED, point, None, None, why, ok, note)))
                continue
            lhs = explicit_value(family, index, params, coefficients)
            rhs = explicit_value(family, 0, params, coefficients)
            p = point["p"]
            try:
                x, y = mod_reduce(lhs, p), mod_reduce(rhs, p)
            except NonreducibleDenominatorError:
                row = UNDEFINED, point, lhs, rhs, NONREDUCIBLE_DENOMINATOR, ok, note
            else:
                status, y = (HOLDS, x) if x == y else (FAILS, y)  # ints: one ==
                row = status, point, x, y, None, ok, note
            verdicts.append(new(Verdict, row))
    return verdicts


def _stirling_orthogonality(label, family, grid, points, prefactor) -> list[Verdict]:
    """sum_{m=l..n} T(n,m) U(m,l) (-1)^m = (-1)^n delta_{n,l} over the full
    triangle 0 <= l <= n <= grid.stirling_n_max, for both triangle orders,
    the sums read from the `_product_rows` builder that EQ9..EQ12 read too,
    one store per form for the process, keyed by this module's
    `stirling1_unsigned` and `stirling2` bindings as the run reads them:

        form first_second: T = [..], U = {..}
        form second_first: T = {..}, U = [..]

    Each integer sum is decided against its integer right side, one of three
    Fractions the run shares; a HOLDS row keeps that Fraction as both, and
    only a FAILS row builds the sum's Fraction as its witness.
    """
    signs = {value: Fraction(value) for value in (-1, 0, 1)}
    verdicts = []
    for form, outer, inner in (
        ("first_second", stirling1_unsigned, stirling2),
        ("second_first", stirling2, stirling1_unsigned),
    ):
        rows = _product_rows(outer, inner, duality_prefactor("m", 0))
        for n in range(grid.stirling_n_max + 1):
            for l, total in enumerate(rows(n)):
                rhs = signs[(-1) ** n if n == l else 0]
                lhs = rhs if total == rhs.numerator else Fraction(total)
                point = {"form": form, "n": n, "l": l}
                verdicts.append(Verdict(HOLDS if lhs is rhs else FAILS, point, lhs, rhs))
    return verdicts


# ---------------------------------------------------------------------------
# grid runner
# ---------------------------------------------------------------------------

DEFAULT_PAIRS: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(1), Fraction(1)),
    (Fraction(1), Fraction(2)),
    (Fraction(2), Fraction(1)),
    (Fraction(1, 2), Fraction(1)),
    (Fraction(3), Fraction(1, 3)),
    (Fraction(1), Fraction(5, 2)),
)


class GridSpec:
    """Evaluation grid for audits; the defaults are the documented ones.

    `multipliers` is the n of s_{n*p} in congruence checks (kept small by
    default: the sequence index reaches multiplier * prime). `k_values` is
    filtered to k >= 1 for congruence identities, which are only stated for
    positive k. Construction raises ValueError unless n_max, stirling_n_max,
    every prime and every multiplier is an int (not a float or a bool), n_max
    and stirling_n_max are >= 0, every prime is a prime below 2**16, every
    multiplier is >= 1, no k, pair, prime or multiplier is listed twice, and
    every point would make a `Params` (each k an int and each pair's alpha
    and a rationals, not bools, with alpha nonzero), checked per k and per
    pair. `points()` lists the points.

    A grid is a value: its fields, named in order by `FIELDS`, alone fix
    equality, hash and repr, and none can be assigned after construction.
    """

    FIELDS = ("n_max", "k_values", "pairs", "primes", "multipliers", "stirling_n_max")
    __slots__ = (*FIELDS, "_keys")

    def __init__(
        self,
        n_max: int = 12,
        k_values: tuple[int, ...] = (-2, -1, 0, 1, 2, 3),
        pairs: tuple[tuple[Fraction, Fraction], ...] = DEFAULT_PAIRS,
        primes: tuple[int, ...] = (3, 5, 7, 11),
        multipliers: tuple[int, ...] = (1, 2, 3),
        stirling_n_max: int = 20,
    ):
        # the arguments in the order of FIELDS
        given = n_max, k_values, pairs, primes, multipliers, stirling_n_max
        for field, value in zip(self.FIELDS, given):
            object.__setattr__(self, field, value)
        # the rule Params applies to k: a float or a bool is not an index
        for value in (self.n_max, self.stirling_n_max, *self.primes, *self.multipliers):
            if type(value) is not int:
                raise ValueError(
                    f"n_max, stirling_n_max, primes and multipliers must be ints, got {value!r}"
                )
        if min(self.n_max, self.stirling_n_max) < 0:
            raise ValueError("n_max and stirling_n_max must be >= 0")
        for p in self.primes:
            # is_prime is trial division, meant for moduli below 2**16; a larger
            # prime would also take a sequence index of at least 2**16
            if p >= 2**16:
                raise ValueError(f"{p} is too large: primes must be below 2**16 = 65536")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        if min(self.multipliers, default=1) < 1:
            raise ValueError("multipliers must be >= 1")
        # a repeated value would repeat its rows; pairs compare as rationals
        for field in ("k_values", "pairs", "primes", "multipliers"):
            values = getattr(self, field)
            if len(set(values)) < len(values):
                raise ValueError(f"{field} lists a value twice")
        # the rules of Params, once per k and per pair where the grid has a
        # point, before the sort below: a value not rational is a ValueError
        if self.pairs:
            for k in self.k_values:
                Params.check_k(k)
        if self.k_values:
            for alpha, a in self.pairs:
                Params.rational_pair(alpha, a)
        # The points' keys in the canonical (k, alpha, a) order of `points()`,
        # built once per grid: k-major over the sorted k values and sorted
        # pairs is the order of the sorted key tuples, as no value is listed
        # twice, and sorts only the pairs by their Fractions. Not a field:
        # equality, hash, repr and the CLI's JSON grid header read `FIELDS`.
        pairs = sorted(self.pairs)
        keys = tuple((k, alpha, a) for k in sorted(self.k_values) for alpha, a in pairs)
        object.__setattr__(self, "_keys", keys)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, field) for field in self.FIELDS)

    def __reduce__(self):
        return type(self), self._astuple()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.FIELDS)
        return f"{type(self).__qualname__}({fields})"

    def points(self) -> list[Point]:
        """A new `Point` for each point, in canonical (k, alpha, a) order,
        with a new `Params` and no point dict or plan yet: the list
        `run_identity` takes. Runs that share one list share all of them."""
        return [Point(Params(*key), [], {}) for key in self._keys]


DEFAULT_GRID = GridSpec()


# The identity catalogue, in the run order of `audit --identity all`:
# label -> (CLI token, check, family). EQ9..EQ12 carry their lhs family;
# STIRLING_ORTHO, which does not depend on (k, alpha, a), has none.
CATALOGUE = {
    "THM1": ("thm1", _explicit_rows, Family.BERNOULLI),
    "THM2": ("thm2", _explicit_rows, Family.CAUCHY1),
    "THM3": ("thm3", _explicit_rows, Family.CAUCHY2),
    "THM4": ("thm4", _orthogonality_rows, Family.BERNOULLI),
    "THM5": ("thm5", _orthogonality_rows, Family.CAUCHY1),
    "THM6": ("thm6", _orthogonality_rows, Family.CAUCHY2),
    "EQ9": ("eq9", _duality_rows, Family.BERNOULLI),
    "EQ10": ("eq10", _duality_rows, Family.BERNOULLI),
    "EQ11": ("eq11", _duality_rows, Family.CAUCHY1),
    "EQ12": ("eq12", _duality_rows, Family.CAUCHY2),
    "THM8_C1": ("thm8", _congruence_rows, Family.CAUCHY1),
    "THM8_C2": ("thm8", _congruence_rows, Family.CAUCHY2),
    "THM8_B": ("thm8", _congruence_rows, Family.BERNOULLI),
    "THM9": ("thm9", _derivative_rows, Family.CAUCHY1),
    "THM10": ("thm10", _derivative_rows, Family.CAUCHY2),
    "THM11": ("thm11", _derivative_rows, Family.BERNOULLI),
    "STIRLING_ORTHO": ("stirling-ortho", _stirling_orthogonality, None),
}


def run_identity(
    identity: str,
    grid: GridSpec = DEFAULT_GRID,
    prefactor: Callable[[int, int], Fraction] | None = None,
    points: list[Point] | None = None,
) -> AuditReport:
    """Evaluate one catalogued identity over the grid.

    The report's rows come in canonical order (k, alpha, a, then indices),
    whatever order the grid lists its values in: the check visits the points
    in the canonical order of `grid.points()`, which the grid sorted once
    when it was built, and makes each point's rows in index order, so the
    rows themselves are never sorted. Identical grids always serialize to
    identical bytes. A `prefactor` is only accepted for EQ9..EQ12.
    STIRLING_ORTHO runs over the triangle of `grid.stirling_n_max` rows, in
    the order its sums are generated.

    `points` is the list `grid.points()` returned, or None for a new one.
    Runs of several identities that share one list share each point's
    `Params` (weights, Stirling sums and values, the cauchy pair's halves,
    which the second cauchy label reads from the first, printed derivative
    coefficients, which THM10 reads from THM9, and composed series) and the
    record's point dicts and THM8 plan (the verdicts' `point`, read-only).
    The first identity in catalogue order that needs them does the work: in
    per-identity timings, THM1-THM3 carry each family's sums and its one
    series composition, which THM9-THM11 then read. Each check takes its row
    stores when its run starts, one per kind of row it reads, `store(n)`
    being row n, and all its points share them. Family coefficient rows
    live as long as the run; the triangle products of EQ9..EQ12 and
    STIRLING_ORTHO and THM4-THM6's triangle rows depend on no point and
    live as long as the process, one store per tuple of functions the run
    reads when it starts (a `prefactor` object is one key). Without a list,
    nothing else the run computes outlives it.
    """
    if identity not in CATALOGUE:
        raise ValueError(f"unknown identity: {identity!r}")
    _, rows, family = CATALOGUE[identity]
    if prefactor is not None and rows is not _duality_rows:
        raise ValueError("a variant prefactor only applies to EQ9..EQ12")
    if points is None:
        points = grid.points()
    return AuditReport(identity, rows(identity, family, grid, points, prefactor))
