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

Reports are deterministic: rows are sorted by a canonical point key, no
timestamps or environment data are recorded, and rerunning the same grid
reproduces the same report, which the CLI renders to the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .exact import (
    NonreducibleDenominatorError,
    factorial,
    is_prime,
    mod_reduce,
)
from .sequences import (
    Family,
    Params,
    deriv_coeffs_oracle,
    deriv_coeffs_printed,
    explicit_scaled,
    explicit_sequence,
    explicit_value,
    oracle_sequence,
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
    "P_DIVIDES_ALPHA",
    "SINGULAR_PARAMETER",
    "UNDEFINED",
    "Verdict",
    "audit_stirling_orthogonality",
    "exit_code",
    "run_identity",
]

HOLDS = "HOLDS"
FAILS = "FAILS"
UNDEFINED = "UNDEFINED"

SINGULAR_PARAMETER = "SINGULAR_PARAMETER"
NONREDUCIBLE_DENOMINATOR = "NONREDUCIBLE_DENOMINATOR"
P_DIVIDES_ALPHA = "P_DIVIDES_ALPHA"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one identity check at one grid point.

    FAILS always carries the unequal (lhs, rhs) pair; UNDEFINED always
    carries a reason code. lhs/rhs are Fractions for value identities and
    plain ints (residues; the modulus sits in the point) for congruences.
    The hypothesis fields are populated only by congruence checks.
    """

    status: str
    point: dict
    lhs: Fraction | int | None = None
    rhs: Fraction | int | None = None
    reason: str | None = None
    hypothesis_ok: bool | None = None
    hypothesis_note: str | None = None


def _compare(point: dict, lhs, rhs, **extra) -> Verdict:
    status = HOLDS if lhs == rhs else FAILS
    return Verdict(status=status, point=point, lhs=lhs, rhs=rhs, **extra)


def _undefined(point: dict, reason: str, **extra) -> Verdict:
    return Verdict(status=UNDEFINED, point=point, reason=reason, **extra)


@dataclass
class AuditReport:
    identity: str
    verdicts: list[Verdict]
    variant: str | None = None

    @property
    def summary(self) -> dict[str, int]:
        counts = {HOLDS: 0, FAILS: 0, UNDEFINED: 0}
        for v in self.verdicts:
            counts[v.status] += 1
        return {
            "holds": counts[HOLDS],
            "fails": counts[FAILS],
            "undefined": counts[UNDEFINED],
        }


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
# Row functions: the verdicts of one identity at one (k, alpha, a) point,
# called as rows(label, family, params, grid, prefactor).


def _params_point(params: Params, n: int) -> dict:
    return {"k": params.k, "alpha": params.alpha, "a": params.a, "n": n}


def _last_defined(params: Params, n_max: int, reach: int) -> int:
    """The largest index whose check is evaluable (-1 if none is), given that
    index n touches alpha*m + a up to m = n + reach."""
    s = params.singular_index(n_max + reach)
    return n_max if s is None else max(-1, min(n_max, s - 1 - reach))


def _singular_tail(params: Params, last: int, n_max: int) -> list[Verdict]:
    """UNDEFINED rows for the indices after `last`, through n_max."""
    return [
        _undefined(_params_point(params, n), SINGULAR_PARAMETER)
        for n in range(last + 1, n_max + 1)
    ]


def _index_comparison(
    family: Family, n_max: int, params: Params, reach: int, formula, series_side
) -> list[Verdict]:
    """formula(family, N, params) vs series_side(family, N, params) index by
    index over 0..n_max, where index n touches alpha*m + a up to m = n + reach."""
    last = _last_defined(params, n_max, reach)
    verdicts = []
    if last >= 0:
        lhs, rhs = formula(family, last, params), series_side(family, last, params)
        verdicts = [
            _compare(_params_point(params, n), x, y)
            for n, (x, y) in enumerate(zip(lhs, rhs))
        ]
    return verdicts + _singular_tail(params, last, n_max)


def _explicit_rows(label, family, params, grid, prefactor) -> list[Verdict]:
    """Stirling-sum path vs generating-function path, index by index."""
    return _index_comparison(
        family, grid.n_max, params, 0, explicit_sequence, oracle_sequence
    )


def _derivative_rows(label, family, params, grid, prefactor) -> list[Verdict]:
    """Closed-form derivative coefficients vs series-forced ones, index by
    index. FAILS rows carry the (printed, series) pair as lhs/rhs witness."""
    return _index_comparison(
        family, grid.n_max, params, 1, deriv_coeffs_printed, deriv_coeffs_oracle
    )


# THM4-THM6 and EQ9-EQ12 read each family's values once per grid point, up to
# the last index where they are defined.


def _orthogonality_rows(label, family, params, grid, prefactor) -> list[Verdict]:
    """One family's Stirling-transform collapse at n = 0..n_max:

        bernoulli: sum_m [n m] B_m  = n! / (alpha n + a)^k
        cauchy1:   sum_m {n m} c_m  = 1 / (alpha n + a)^k
        cauchy2:   sum_m {n m} ch_m = (-1)^n / (alpha n + a)^k
    """
    last = _last_defined(params, grid.n_max, 0)
    nums, den = explicit_scaled(family, last, params)
    verdicts = []
    for n in range(last + 1):
        if family is Family.BERNOULLI:
            lhs = sum(stirling1_unsigned(n, m) * nums[m] for m in range(n + 1))
            rhs = factorial(n) * params.weight(n)
        else:
            lhs = sum(stirling2(n, m) * nums[m] for m in range(n + 1))
            rhs = params.weight(n)
            if family is Family.CAUCHY2:
                rhs = (-1) ** n * rhs
        verdicts.append(
            _compare(_params_point(params, n), Fraction(lhs, den), Fraction(rhs))
        )
    return verdicts + _singular_tail(params, last, grid.n_max)


_DUALITY_SHAPE = {
    # identity -> (lhs family, summed family, stirling triangle, printed prefactor)
    "EQ9": (
        Family.BERNOULLI, Family.CAUCHY1, stirling2,
        lambda n, m: (-1) ** (m + n) * factorial(m),
    ),
    "EQ10": (
        Family.BERNOULLI, Family.CAUCHY2, stirling2,
        lambda n, m: (-1) ** m * factorial(m),
    ),
    "EQ11": (
        Family.CAUCHY1, Family.BERNOULLI, stirling1_unsigned,
        lambda n, m: (-1) ** (m + n) * factorial(m),
    ),
    "EQ12": (
        Family.CAUCHY2, Family.BERNOULLI, stirling1_unsigned,
        lambda n, m: (-1) ** n * factorial(m),
    ),
}


def _duality_rows(label, family, params, grid, prefactor) -> list[Verdict]:
    """One double-sum interchange identity at n = 0..n_max:

        EQ9:  B_n  = sum_{l,m<=n} (-1)^(m+n) m! {n m} {m l} c_l
        EQ10: B_n  = sum_{l,m<=n} (-1)^m     m! {n m} {m l} ch_l
        EQ11: c_n  = sum_{l,m<=n} (-1)^(m+n) m! [n m] [m l] B_l
        EQ12: ch_n = sum_{l,m<=n} (-1)^n     m! [n m] [m l] B_l

    A `prefactor(n, m)` other than None substitutes the catalogued one for
    exploratory reruns; the check itself never promotes any variant to
    "intended".

    The double sum is evaluated as sum_l c_l x_l over the summed family's
    values x_l, with c_l = sum_{m=l..n} prefactor(n, m) T(n, m) T(m, l):
    integers under the printed prefactor, Fractions under a rational one.
    """
    lhs_family, summed_family, triangle, printed = _DUALITY_SHAPE[label]
    pf = prefactor if prefactor is not None else printed
    last = _last_defined(params, grid.n_max, 0)
    lhs_nums, lhs_den = explicit_scaled(lhs_family, last, params)
    inner, inner_den = explicit_scaled(summed_family, last, params)
    verdicts = []
    for n in range(last + 1):
        weights = [0] * (n + 1)
        for m in range(n + 1):
            outer = triangle(n, m)
            if outer == 0:
                continue
            weight = pf(n, m) * outer
            for l in range(m + 1):
                weights[l] += weight * triangle(m, l)
        rhs = sum(w * x for w, x in zip(weights, inner))
        verdicts.append(
            _compare(
                _params_point(params, n),
                Fraction(lhs_nums[n], lhs_den),
                Fraction(rhs, inner_den),
            )
        )
    return verdicts + _singular_tail(params, last, grid.n_max)


def _invertibility_scan(params: Params, m_max: int, p: int) -> tuple[bool, str | None]:
    """Does (alpha*m + a) stay invertible mod p for every m in 0..m_max?"""
    for m in range(m_max + 1):
        value = params.alpha * m + params.a
        if value.numerator % p == 0 or value.denominator % p == 0:
            return False, f"alpha*m + a not invertible mod {p} at m = {m}"
    return True, None


def _congruence_rows(label, family, params, grid, prefactor) -> list[Verdict]:
    """s_{n*p} = s_0 (mod p) for each multiplier n and prime p of the grid.

    Congruences are stated for k >= 1 only; other k give no rows. Both
    sequence values are computed exactly and then reduced mod p. A point is
    UNDEFINED, never a pass or a fail, when p divides alpha (the standing
    assumption fails) or a denominator (the congruence is not evaluable).
    Every verdict also records whether (alpha*m + a) stays invertible mod p
    over the whole range m = 0..n*p, the assumption under which the
    congruence is claimed. The flag is reported, never used to suppress a
    result.
    """
    if params.k < 1:
        return []
    verdicts = []
    for n in grid.multipliers:
        for p in grid.primes:
            point = {**_params_point(params, n), "p": p}
            hyp_ok, hyp_note = _invertibility_scan(params, n * p, p)
            flags = {"hypothesis_ok": hyp_ok, "hypothesis_note": hyp_note}
            if params.alpha.numerator % p == 0:
                verdicts.append(_undefined(point, P_DIVIDES_ALPHA, **flags))
            elif params.singular_index(n * p) is not None:
                verdicts.append(_undefined(point, SINGULAR_PARAMETER, **flags))
            else:
                lhs = explicit_value(family, n * p, params)
                rhs = explicit_value(family, 0, params)
                try:
                    residues = mod_reduce(lhs, p), mod_reduce(rhs, p)
                except NonreducibleDenominatorError:
                    verdicts.append(
                        _undefined(
                            point, NONREDUCIBLE_DENOMINATOR, lhs=lhs, rhs=rhs, **flags
                        )
                    )
                else:
                    verdicts.append(_compare(point, *residues, **flags))
    return verdicts


def audit_stirling_orthogonality(n_max: int) -> AuditReport:
    """sum_{m=l..n} T(n,m) U(m,l) (-1)^m = (-1)^n delta_{n,l} over the full
    triangle 0 <= l <= n <= n_max, for both triangle orders:

        form first_second: T = [..], U = {..}
        form second_first: T = {..}, U = [..]
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    verdicts = []
    for form, outer, inner in (
        ("first_second", stirling1_unsigned, stirling2),
        ("second_first", stirling2, stirling1_unsigned),
    ):
        for n in range(n_max + 1):
            for l in range(n + 1):
                total = sum(
                    outer(n, m) * inner(m, l) * (-1) ** m for m in range(l, n + 1)
                )
                expected = (-1) ** n if n == l else 0
                point = {"form": form, "n": n, "l": l}
                verdicts.append(_compare(point, Fraction(total), Fraction(expected)))
    return AuditReport("STIRLING_ORTHO", verdicts)


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


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid for audits; the defaults are the documented ones.

    `multipliers` is the n of s_{n*p} in congruence checks (kept small by
    default: the sequence index reaches multiplier * prime). `k_values` is
    filtered to k >= 1 for congruence identities, which are only stated for
    positive k. Construction raises ValueError unless n_max and stirling_n_max
    are >= 0, every prime is a prime below 2**16 and every multiplier is >= 1.
    """

    n_max: int = 12
    k_values: tuple[int, ...] = (-2, -1, 0, 1, 2, 3)
    pairs: tuple[tuple[Fraction, Fraction], ...] = DEFAULT_PAIRS
    primes: tuple[int, ...] = (3, 5, 7, 11)
    multipliers: tuple[int, ...] = (1, 2, 3)
    stirling_n_max: int = 20

    def __post_init__(self):
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


DEFAULT_GRID = GridSpec()

_POINT_KEY_ORDER = ("form", "k", "alpha", "a", "n", "l", "p")


def _point_sort_key(verdict: Verdict):
    return tuple(
        verdict.point[key] for key in _POINT_KEY_ORDER if key in verdict.point
    )


# The identity catalogue, in the run order of `audit --identity all`:
# label -> (CLI token, row function, family). EQ9..EQ12 carry their lhs
# family. STIRLING_ORTHO does not depend on (k, alpha, a) and has no row
# function.
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
    "STIRLING_ORTHO": ("stirling-ortho", None, None),
}


def run_identity(
    identity: str,
    grid: GridSpec = DEFAULT_GRID,
    prefactor: Callable[[int, int], Fraction] | None = None,
    variant_label: str | None = None,
) -> AuditReport:
    """Evaluate one catalogued identity over the grid.

    The report's rows are canonically sorted (k, alpha, a, then indices), so
    identical grids always serialize to identical bytes. `prefactor` and
    `variant_label` are only honoured for EQ9..EQ12.
    """
    if identity not in CATALOGUE:
        raise ValueError(f"unknown identity: {identity!r}")
    _, rows, family = CATALOGUE[identity]
    if prefactor is not None and rows is not _duality_rows:
        raise ValueError("a variant prefactor only applies to EQ9..EQ12")
    if rows is None:
        return audit_stirling_orthogonality(grid.stirling_n_max)
    verdicts: list[Verdict] = []
    for alpha, a in grid.pairs:
        for k in grid.k_values:
            verdicts.extend(rows(identity, family, Params(k, alpha, a), grid, prefactor))
    variant = variant_label if rows is _duality_rows else None
    return AuditReport(identity, sorted(verdicts, key=_point_sort_key), variant)

