import copy
import operator
import pickle
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hlpoly
from hlpoly import audit, sequences
from hlpoly.audit import (
    _DUALITY_SHAPE,
    AuditReport,
    CATALOGUE,
    DEFAULT_GRID,
    FAILS,
    GridSpec,
    HOLDS,
    NONREDUCIBLE_DENOMINATOR,
    P_DIVIDES_ALPHA,
    PREFACTOR_EXPONENTS,
    PREFACTOR_POWERS,
    SINGULAR_PARAMETER,
    Point,
    UNDEFINED,
    Verdict,
    _congruence_rows,
    _derivative_rows,
    _product_rows,
    _stirling_orthogonality,
    _value_rows,
    duality_prefactor,
    exit_code,
    run_identity,
)
from hlpoly.exact import decided, mod_reduce
from hlpoly.sequences import (
    Family,
    Params,
    deriv_coeffs_oracle,
    deriv_coeffs_printed,
    explicit_value,
)
from hlpoly.stirling import stirling1_unsigned, stirling2

import bruteforce

P111 = Params(1, 1, 1)

EXPLICIT = {Family.BERNOULLI: "THM1", Family.CAUCHY1: "THM2", Family.CAUCHY2: "THM3"}
ORTHOGONALITY = {
    Family.BERNOULLI: "THM4",
    Family.CAUCHY1: "THM5",
    Family.CAUCHY2: "THM6",
}
CONGRUENCE = {
    Family.BERNOULLI: "THM8_B",
    Family.CAUCHY1: "THM8_C1",
    Family.CAUCHY2: "THM8_C2",
}


def one_point(identity, params, n_max=0, prefactor=None, **grid):
    """run_identity on a grid of the single point (k, alpha, a) of `params`."""
    grid = GridSpec(
        n_max=n_max, k_values=(params.k,), pairs=((params.alpha, params.a),), **grid
    )
    return run_identity(identity, grid, prefactor)


def congruence(family, n, params, p):
    """The congruence verdicts of s_{n*p} = s_0 (mod p) at one point."""
    return one_point(CONGRUENCE[family], params, primes=(p,), multipliers=(n,)).verdicts


# -- orthogonality ------------------------------------------------------------


def test_orthogonality_base_cases():
    for family in Family:
        for params in [P111, Params(-2, 2, Fraction(1, 3))]:
            [verdict] = one_point(ORTHOGONALITY[family], params).verdicts
            assert verdict.status == HOLDS


def test_orthogonality_fixtures():
    # cauchy1 at n=2: {2 1} c_1 + {2 2} c_2 = 1/2 - 1/6 = 1/3 = 1/(2+1)
    verdict = one_point("THM5", P111, 2).verdicts[2]
    assert verdict.status == HOLDS
    assert verdict.lhs == Fraction(1, 3)
    verdict = one_point("THM6", P111, 2).verdicts[2]
    assert verdict.status == HOLDS
    assert verdict.lhs == Fraction(1, 3)


def test_orthogonality_holds_broadly():
    for family in Family:
        for k in (-2, 0, 1, 3):
            for alpha, a in [(1, 1), (Fraction(1, 2), 1), (3, Fraction(1, 3))]:
                params = Params(k, alpha, a)
                verdicts = one_point(ORTHOGONALITY[family], params, 8).verdicts
                assert [v.status for v in verdicts] == [HOLDS] * 9


def test_orthogonality_singular_point_undefined():
    verdict = one_point("THM4", Params(1, 1, -2), 4).verdicts[4]
    assert verdict.status == UNDEFINED
    assert verdict.reason == SINGULAR_PARAMETER


# -- duality ------------------------------------------------------------------


def test_duality_singular_point_undefined():
    for identity in ("EQ9", "EQ10", "EQ11", "EQ12"):
        verdict = one_point(identity, Params(1, 1, -2), 4).verdicts[4]
        assert verdict.status == UNDEFINED
        assert verdict.reason == SINGULAR_PARAMETER


def test_eq9_holds():
    verdicts = one_point("EQ9", P111, 6).verdicts
    assert [v.status for v in verdicts] == [HOLDS] * 7


def test_eq11_witness_fixture():
    verdict = one_point("EQ11", P111, 2).verdicts[2]
    assert verdict.status == FAILS
    assert verdict.lhs == Fraction(-1, 6)
    assert verdict.rhs == Fraction(5, 6)


def test_eq11_holds_at_n1():
    assert one_point("EQ11", P111, 1).verdicts[1].status == HOLDS


def test_the_prefactor_family_is_a_sign_times_a_power_of_m_factorial():
    for exp, (of_m, of_n) in PREFACTOR_EXPONENTS.items():
        for power in PREFACTOR_POWERS:
            prefactor = duality_prefactor(exp, power)
            for n in range(6):
                for m in range(n + 1):
                    value = prefactor(n, m)
                    expected = (-1) ** (of_m * m + of_n * n) * Fraction(factorial(m)) ** power
                    assert value == expected
                    assert type(value) is (Fraction if power < 0 else int)
    for exp, power in (("1", 1), ("m", 2), ("m+n", "1"), ("m", 0.0), ("n", True)):
        with pytest.raises(ValueError):
            duality_prefactor(exp, power)


# The corrected prefactor of each duality identity as (EXP, POWER), the
# errata table of README; EQ9's is the printed one.
ERRATA = {"EQ9": ("m+n", 1), "EQ10": ("n", 1), "EQ11": ("m+n", -1), "EQ12": ("n", -1)}


@pytest.mark.parametrize("label", sorted(ERRATA))
def test_exactly_one_family_prefactor_holds_and_it_is_the_corrected_one(label):
    grid = GridSpec(n_max=7)  # 6 pairs, 6 k values, n = 0..7: 288 points
    holding = [
        (exp, power)
        for exp in PREFACTOR_EXPONENTS
        for power in PREFACTOR_POWERS
        if run_identity(label, grid, duality_prefactor(exp, power)).summary
        == {"holds": 288, "fails": 0, "undefined": 0}
    ]
    assert holding == [ERRATA[label]]


def test_duality_variant_prefactor():
    # a variant prefactor changes the double sum; geometry stays the same
    printed = one_point("EQ11", P111, 2).verdicts[2]
    variant = one_point(
        "EQ11", P111, 2, prefactor=lambda n, m: Fraction((-1) ** (m + n), 1)
    ).verdicts[2]
    assert printed.rhs != variant.rhs


# -- congruence ---------------------------------------------------------------


def test_congruence_fixtures():
    [verdict] = congruence(Family.CAUCHY1, 1, P111, 3)
    assert verdict.status == HOLDS
    assert (verdict.lhs, verdict.rhs) == (1, 1)
    assert verdict.hypothesis_ok is False
    assert "m = 2" in verdict.hypothesis_note

    [verdict] = congruence(Family.BERNOULLI, 1, P111, 3)
    assert verdict.status == FAILS
    assert (verdict.lhs, verdict.rhs) == (0, 1)

    [verdict] = congruence(Family.CAUCHY1, 1, Params(1, 2, 1), 3)
    assert verdict.status == UNDEFINED
    assert verdict.reason == NONREDUCIBLE_DENOMINATOR
    assert verdict.lhs == Fraction(22, 105)


def test_congruence_preconditions():
    with pytest.raises(ValueError):
        congruence(Family.CAUCHY1, 0, P111, 3)
    # congruences are stated for k >= 1 only
    assert congruence(Family.CAUCHY1, 1, Params(0, 1, 1), 3) == []
    with pytest.raises(ValueError):
        congruence(Family.CAUCHY1, 1, P111, 4)
    [verdict] = congruence(Family.CAUCHY1, 1, Params(1, 3, 1), 3)
    assert verdict.status == UNDEFINED
    assert verdict.reason == P_DIVIDES_ALPHA


@pytest.mark.parametrize("family", list(Family))
def test_congruence_singular_parameter_row(family):
    # alpha*m + a vanishes at m = 2 < n*p = 3, so s_3 is not defined
    [verdict] = congruence(family, 1, Params(1, 1, -2), 3)
    assert verdict == Verdict(
        status=UNDEFINED,
        point={"k": 1, "alpha": 1, "a": -2, "n": 1, "p": 3},
        reason=SINGULAR_PARAMETER,
        hypothesis_ok=False,
        hypothesis_note="alpha*m + a not invertible mod 3 at m = 2",
    )


# alpha and a with numerators and denominators that the primes 2, 3, 5 and 7
# divide, negative values included
congruence_rationals = st.builds(
    Fraction, st.integers(-14, 14), st.sampled_from((1, 2, 3, 5, 6, 7))
)


@settings(max_examples=40, deadline=None)
@example(Fraction(-1), Fraction(2), (2, 3), (1, 6), "THM8_C1")
@example(Fraction(3), Fraction(1), (3, 5), (1, 2), "THM8_B")  # p | alpha
@example(Fraction(1, 2), Fraction(1), (2, 7), (1, 4), "THM8_C2")  # p | alpha's denominator
@example(Fraction(1), Fraction(1, 3), (3, 5), (2, 6), "THM8_C1")  # p | a's denominator
# m = 0 gives 3/3 before reduction, a unit: the first m that is not one is 1
@example(Fraction(1, 3), Fraction(1), (3,), (1, 2), "THM8_C2")
@example(Fraction(-5, 2), Fraction(7, 3), (5, 7), (3,), "THM8_B")  # negative alpha
@example(Fraction(2), Fraction(-4, 21), (3, 7), (1, 2), "THM8_C1")  # p | a's denominator
@given(
    congruence_rationals.filter(lambda q: q != 0),
    congruence_rationals,
    st.lists(st.sampled_from((2, 3, 5, 7)), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
    st.sampled_from(sorted(CONGRUENCE.values())),
)
def test_congruence_hypothesis_flags_match_a_scan_per_row(alpha, a, primes, multipliers, identity):
    # the audit decides each prime's flag once per point; every (n, p) row
    # must read what a scan of its own range 0..n*p finds
    grid = GridSpec(
        k_values=(1,), pairs=((alpha, a),), primes=tuple(primes), multipliers=tuple(multipliers)
    )
    verdicts = run_identity(identity, grid).verdicts
    assert len(verdicts) == len(primes) * len(multipliers)
    for v in verdicts:
        expected = bruteforce.congruence_hypothesis(alpha, a, v.point["n"], v.point["p"])
        assert (v.hypothesis_ok, v.hypothesis_note) == expected


@settings(max_examples=40, deadline=None)
@example([(Fraction(3), Fraction(1)), (Fraction(1), Fraction(1))], (3,), (1,), "THM8_B")
@given(
    st.lists(
        st.tuples(congruence_rationals.filter(lambda q: q != 0), congruence_rationals),
        min_size=1, max_size=4, unique=True,
    ),
    st.lists(st.sampled_from((2, 3, 5, 7)), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True),
    st.sampled_from(sorted(CONGRUENCE.values())),
)
def test_a_true_hypothesis_flag_is_always_a_p_divides_alpha_row(pairs, primes, multipliers, identity):
    # The hypothesis (alpha*m + a a unit mod p for every m) holds exactly when
    # p divides alpha's numerator and a is a p-unit: otherwise alpha is a unit
    # and m = -a/alpha (mod p) is a zero, or m = 0 or 1 meets a denominator p
    # divides. So no THM8 HOLDS or FAILS is ever read under the hypothesis.
    grid = GridSpec(
        k_values=(1, 2), pairs=tuple(pairs), primes=tuple(primes), multipliers=tuple(multipliers)
    )
    for v in run_identity(identity, grid).verdicts:
        p, alpha, a = v.point["p"], v.point["alpha"], v.point["a"]
        p_unit = a.numerator * a.denominator % p != 0
        assert v.hypothesis_ok == (alpha.numerator % p == 0 and p_unit)
        if v.hypothesis_ok:
            assert v.reason == P_DIVIDES_ALPHA


@st.composite
def hypothesis_points(draw):
    """(p, alpha, a) with p dividing alpha's numerator and a a p-unit."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    unit = st.integers(-12, 12).filter(lambda x: x % p != 0)
    positive_unit = st.integers(1, 12).filter(lambda x: x % p != 0)
    alpha = Fraction(p * draw(unit), draw(positive_unit))
    return p, alpha, Fraction(draw(unit), draw(positive_unit))


@settings(max_examples=60, deadline=None)
@given(hypothesis_points(), st.integers(1, 3), st.integers(0, 30))
def test_under_the_congruence_hypothesis_values_take_the_closed_form_residues(point, k, n):
    p, alpha, a = point
    assert bruteforce.congruence_hypothesis(alpha, a, max(n, 1), p) == (True, None)
    params = Params(k, alpha, a)
    for family in Family:
        expected = bruteforce.congruence_residue_under_hypothesis(family.value, n, k, a, p)
        assert mod_reduce(explicit_value(family, n, params), p) == expected


def test_each_point_builds_its_weights_once(monkeypatch):
    # a Params keeps the weights it has built: THM4-THM6 read one vector for
    # both sides, and THM8 one vector up to its largest evaluable n*p
    calls = []
    pow_rat = sequences.pow_rat
    monkeypatch.setattr(
        sequences, "pow_rat", lambda base, k: calls.append(base) or pow_rat(base, k)
    )
    for identity in ORTHOGONALITY.values():
        run_identity(identity, DEFAULT_GRID)
    assert len(calls) == 1404
    calls.clear()
    for identity in CONGRUENCE.values():
        run_identity(identity, DEFAULT_GRID)
    assert len(calls) == 1836


# (1, 0) and (1, -3) are singular at m = 0 and m = 3, alpha = -1 is negative
POINT_PAIRS = (
    (Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(-3)),
    (Fraction(-1), Fraction(2)),
    (Fraction(1, 2), Fraction(1)),
    (Fraction(2), Fraction(-1, 3)),
)


def distinct(elements, max_size):
    """A grid field: a tuple of 1..max_size distinct elements."""
    return st.lists(elements, min_size=1, max_size=max_size, unique=True).map(tuple)


@settings(max_examples=15, deadline=None)
@example(
    GridSpec(
        n_max=4,
        k_values=(-1, 0, 2),
        pairs=POINT_PAIRS[:4],
        primes=(3,),
        multipliers=(1, 2),
        stirling_n_max=3,
    )
)
@given(
    st.builds(
        GridSpec,
        n_max=st.integers(0, 4),
        k_values=distinct(st.integers(-2, 3), 3),
        pairs=distinct(st.sampled_from(POINT_PAIRS), 4),
        primes=distinct(st.sampled_from((2, 3, 5)), 2),
        multipliers=distinct(st.integers(1, 2), 2),
        stirling_n_max=st.integers(0, 3),
    )
)
def test_a_shared_point_map_changes_no_report(grid):
    # `audit --identity all` runs every label on one list of the grid's
    # points; each report equals the label's run on a list of its own
    points = grid.points()
    for label in CATALOGUE:
        assert run_identity(label, grid, None, points) == run_identity(label, grid)


def test_a_shared_point_map_shares_each_point_object():
    # a singular pair (its SINGULAR_PARAMETER rows), and a k < 1, which has
    # no THM8 rows
    grid = GridSpec(
        n_max=4,
        k_values=(-1, 1, 2),
        pairs=((1, 1), (1, -2), (3, Fraction(1, 3))),
        primes=(3, 5),
        multipliers=(1, 2),
        stirling_n_max=3,
    )
    points = grid.points()
    reports = {label: run_identity(label, grid, None, points) for label in CATALOGUE}
    held = {}  # a point's keys and values -> the point objects of its verdicts
    for label, report in reports.items():
        for v in report.verdicts:
            held.setdefault((label == "STIRLING_ORTHO", *v.point.items()), []).append(v.point)
    shares = Counter()
    for (ortho, *items), objects in held.items():
        # STIRLING_ORTHO's points stay distinct; any other key set is one
        # object, held by every label that has a row at it
        assert len(objects) == 1 if ortho else all(x is objects[0] for x in objects)
        shares[tuple(key for key, _ in items), len(objects)] += 1
    value_point, congruence_point = ("k", "alpha", "a", "n"), ("k", "alpha", "a", "n", "p")
    # THM1-THM6, EQ9-EQ12 and THM9-THM11 at each (k, alpha, a, n); THM8_C1,
    # THM8_C2 and THM8_B at each (k, alpha, a, n, p) with k >= 1
    assert shares[value_point, 13] == 3 * 3 * 5
    assert shares[congruence_point, 3] == 2 * 3 * 2 * 2
    assert sum(count for (keys, _), count in shares.items() if keys[0] != "form") == 45 + 24
    # runs without a list give equal reports
    assert all(run_identity(label, grid) == report for label, report in reports.items())


def test_runs_to_a_larger_index_grow_each_records_point_dicts():
    # runs on one list may ask for different n_max: each record's point
    # dicts grow to the largest asked for, so no run drops a row, and a
    # shorter run reads the first of them; (1, -4) has a singular tail
    short, long = (GridSpec(n_max=n, k_values=(1,), pairs=((1, 1), (1, -4))) for n in (2, 5))
    points = short.points()
    for grid in (short, long, short):
        for label in ("THM1", "THM9"):
            assert run_identity(label, grid, None, points) == run_identity(label, grid)
    assert [len(index) for _, index, _ in points] == [6, 6]


def counted_prefactor(prefactor) -> tuple:
    """A new function object equal to `prefactor`, and its calls per (n, m)."""
    calls = Counter()

    def counted(n, m):
        calls[n, m] += 1
        return prefactor(n, m)

    return counted, calls


def test_the_coefficient_store_calls_each_prefactor_object_once():
    # the triangle products are kept for the process, one store per
    # prefactor object: it is called once per (n, m) with [n m] != 0, not
    # once per point, and a later run with the same object calls it no more
    printed = _DUALITY_SHAPE["EQ11"][2]
    counted, calls = counted_prefactor(printed)
    # (1, -2) is singular at m = 2, so that point evaluates n <= 1 only
    grid = GridSpec(n_max=5, k_values=(1, 2), pairs=((1, 1), (1, -2), (2, 1)))
    assert run_identity("EQ11", grid, counted) == run_identity("EQ11", grid)
    needed = {(n, m) for n in range(6) for m in range(n + 1) if stirling1_unsigned(n, m)}
    assert calls == dict.fromkeys(needed, 1)
    calls.clear()
    assert run_identity("EQ11", grid, counted) == run_identity("EQ11", grid)
    assert calls == {}
    # a new object gets a store of its own, built only as far as asked for
    counted, calls = counted_prefactor(printed)
    run_identity("EQ11", GridSpec(n_max=5, k_values=(1, 2), pairs=((1, -2),)), counted)
    assert calls == {(0, 0): 1, (1, 1): 1}


def test_each_prefactor_and_triangle_tuple_has_one_store_for_the_process():
    for exp in PREFACTOR_EXPONENTS:
        for power in PREFACTOR_POWERS:
            assert duality_prefactor(exp, power) is duality_prefactor(exp, power)
    printed = _DUALITY_SHAPE["EQ11"][2]
    store = _product_rows(stirling1_unsigned, stirling1_unsigned, printed)
    assert _product_rows(stirling1_unsigned, stirling1_unsigned, printed) is store
    counted, _ = counted_prefactor(printed)
    other = _product_rows(stirling1_unsigned, stirling1_unsigned, counted)
    assert other is not store and other(6) == store(6)
    # every key the CLI can reach fits in the bound, so none is rebuilt:
    # STIRLING_ORTHO's two forms and each family prefactor on both pairs
    triangles = (stirling1_unsigned, stirling2)
    keys = [(*pair, duality_prefactor("m", 0)) for pair in (triangles, triangles[::-1])]
    keys += [
        (triangle, triangle, duality_prefactor(exp, power))
        for triangle in triangles
        for exp in PREFACTOR_EXPONENTS
        for power in PREFACTOR_POWERS
    ]
    stores = [_product_rows(*key) for key in keys]
    assert len(keys) <= _product_rows.cache_parameters()["maxsize"]
    assert all(_product_rows(*key) is kept for key, kept in zip(keys, stores))


# identity -> the Stirling lookups of its families' coefficient rows on the
# default grid: bernoulli reads {n m}, the cauchy families [n m], and EQ9-EQ12
# sum one family of each kind
BOTH_KINDS = {"stirling1_unsigned": 91, "stirling2": 91}
FAMILY_LOOKUPS = {
    "THM4": {"stirling2": 91},
    "THM5": {"stirling1_unsigned": 91},
    "THM6": {"stirling1_unsigned": 91},
    **dict.fromkeys(["EQ9", "EQ10", "EQ11", "EQ12"], BOTH_KINDS),
}


@pytest.mark.parametrize("identity", FAMILY_LOOKUPS)
def test_a_run_reads_each_family_coefficient_store_once(monkeypatch, identity):
    # THM4-THM6 and EQ9-EQ12 sum their families over one coefficient store
    # per family for the whole run: each entry of rows 0..12 is looked up
    # once, 91 per family and triangle kind, not once per point (3276)
    calls = Counter()

    def counted(name):
        lookup = getattr(sequences, name)
        return lambda n, m: calls.update([name]) or lookup(n, m)

    for name in BOTH_KINDS:
        monkeypatch.setattr(sequences, name, counted(name))
    report = run_identity(identity, DEFAULT_GRID)
    assert calls == FAMILY_LOOKUPS[identity]
    # a shared point list: THM1-THM3 sum every family first, and the run
    # reads their sums, so it looks up nothing
    points = DEFAULT_GRID.points()
    for label in EXPLICIT.values():
        run_identity(label, DEFAULT_GRID, None, points)
    calls.clear()
    assert run_identity(identity, DEFAULT_GRID, None, points) == report
    assert calls == {}


# each package triangle with its recurrence-free reference from bruteforce
TRIANGLES = {
    "first": (stirling1_unsigned, lambda n, m: bruteforce.stirling1_unsigned_row(n)[m]),
    "second": (stirling2, bruteforce.stirling2_explicit),
}
PRODUCTS = [("first", "second"), ("second", "first"), ("first", "first"), ("second", "second")]


@pytest.mark.parametrize("outer, inner", PRODUCTS, ids=["-".join(p) for p in PRODUCTS])
@pytest.mark.parametrize("exp, power", [("m", 0), ("m+n", -1)], ids=["m,0", "m+n,-1"])
def test_product_rows_are_the_direct_triple_sum(outer, inner, exp, power):
    # the store STIRLING_ORTHO and EQ9-EQ12 read, integer and Fraction rows,
    # asked for from the last row down so that no row leans on an earlier one
    prefactor = duality_prefactor(exp, power)
    store = _product_rows(TRIANGLES[outer][0], TRIANGLES[inner][0], prefactor)
    reference = TRIANGLES[outer][1], TRIANGLES[inner][1], prefactor
    for n in reversed(range(13)):
        expected = [bruteforce.triangle_product(*reference, n, l) for l in range(n + 1)]
        assert store(n) == expected


def test_congruence_consistent_with_exact_recomputation():
    # recompute both residues through the generating-function path, which
    # shares nothing with the Stirling sums the audit reduces
    from hlpoly.sequences import oracle_sequence

    for family in Family:
        for p in (3, 5):
            params = Params(1, 1, 2)
            [verdict] = congruence(family, 1, params, p)
            if verdict.status == UNDEFINED:
                continue
            values = oracle_sequence(family, p, params)
            lhs = mod_reduce(values[p], p)
            rhs = mod_reduce(values[0], p)
            assert (verdict.status == HOLDS) == (lhs == rhs)
            assert (verdict.lhs, verdict.rhs) == (lhs, rhs)


# -- explicit and derivative reports ------------------------------------------


def test_audit_explicit_all_holds():
    for family in Family:
        report = one_point(EXPLICIT[family], P111, 6)
        assert report.summary == {"holds": 7, "fails": 0, "undefined": 0}


def test_audit_explicit_singular_tail():
    report = one_point("THM2", Params(1, 1, -3), 5)
    statuses = [v.status for v in report.verdicts]
    assert statuses[:3] == [HOLDS, HOLDS, HOLDS]
    assert statuses[3:] == [UNDEFINED] * 3
    assert all(v.reason == SINGULAR_PARAMETER for v in report.verdicts[3:])


def test_audit_derivative_all_singular_has_no_negative_index():
    # alpha*m + a vanishes at m = 0, so no index is evaluable
    report = one_point("THM9", Params(1, 1, 0), 2)
    assert [v.point["n"] for v in report.verdicts] == [0, 1, 2]
    assert all(v.status == UNDEFINED for v in report.verdicts)
    assert all(v.reason == SINGULAR_PARAMETER for v in report.verdicts)


def test_audit_derivative_fixtures():
    report = one_point("THM9", P111, 1)
    assert report.identity == "THM9"
    first, second = report.verdicts
    assert first.status == FAILS and (first.lhs, first.rhs) == (0, Fraction(1, 2))
    assert second.status == FAILS
    assert (second.lhs, second.rhs) == (Fraction(1, 2), Fraction(1, 3))


def test_audit_derivative_self_consistency_control():
    # x = x control: the comparison machinery reports HOLDS when both sides
    # are the oracle's own recomputation
    grid = GridSpec(n_max=10, k_values=(P111.k,), pairs=((P111.alpha, P111.a),))
    verdicts = _value_rows(
        grid,
        grid.points(),
        1,
        lambda params, last: [deriv_coeffs_oracle(Family.CAUCHY1, last, params)] * 2,
    )
    assert len(verdicts) == 11
    assert all(v.status == HOLDS for v in verdicts)


# The 13 value identities, each comparing two value sequences index by index.
VALUE_IDENTITIES = [
    label
    for label, (_, rows, _) in CATALOGUE.items()
    if rows not in (_stirling_orthogonality, _congruence_rows)
]


@pytest.mark.parametrize("identity", VALUE_IDENTITIES)
@pytest.mark.parametrize("k", [-1, 1, 2])
@pytest.mark.parametrize("a, s", [(0, 0), (-1, 1), (-3, 3), (1, None)])
def test_value_rows_are_evaluable_exactly_below_the_singular_index(identity, k, a, s):
    # alpha = 1: alpha*m + a vanishes at m = s, and index n touches m <= n + reach
    reach = 1 if CATALOGUE[identity][1] is _derivative_rows else 0
    last = 5 if s is None else min(5, s - 1 - reach)
    verdicts = one_point(identity, Params(k, 1, a), 5).verdicts
    assert [v.point["n"] for v in verdicts] == list(range(6))
    for v in verdicts:
        if v.point["n"] <= last:
            assert v.status in (HOLDS, FAILS), v
        else:
            assert (v.status, v.reason) == (UNDEFINED, SINGULAR_PARAMETER), v


def test_audit_derivative_bernoulli_agrees_then_diverges():
    report = one_point("THM11", P111, 3)
    assert [v.status for v in report.verdicts] == [HOLDS, HOLDS, FAILS, FAILS]
    assert report.verdicts[2].lhs == Fraction(13, 6)
    assert report.verdicts[2].rhs == Fraction(5, 6)


# -- stirling orthogonality ---------------------------------------------------


def test_stirling_orthogonality_holds_to_20():
    report = run_identity("STIRLING_ORTHO", GridSpec(stirling_n_max=20))
    assert report.summary["fails"] == 0
    assert report.summary["undefined"] == 0
    # both triangle orders, full triangle each
    assert len(report.verdicts) == 2 * (21 * 22 // 2)


def test_stirling_orthogonality_diagonal_points():
    report = run_identity("STIRLING_ORTHO", GridSpec(stirling_n_max=3))
    by_point = {
        (v.point["form"], v.point["n"], v.point["l"]): v for v in report.verdicts
    }
    verdict = by_point[("first_second", 3, 1)]
    assert verdict.status == HOLDS and verdict.lhs == 0
    verdict = by_point[("first_second", 3, 3)]
    assert verdict.lhs == -1


# -- grid runner --------------------------------------------------------------

QUICK_GRID = GridSpec(
    n_max=4,
    k_values=(1, 2),
    pairs=((Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))),
    primes=(3,),
    multipliers=(1,),
    stirling_n_max=4,
)


def test_run_identity_rejects_unknown():
    with pytest.raises(ValueError):
        run_identity("THM99")
    with pytest.raises(ValueError):
        run_identity("THM4", QUICK_GRID, prefactor=lambda n, m: Fraction(1))


# A prime of 2**16 or more would hang run_identity in trial division.
@pytest.mark.parametrize(
    "fields",
    [
        {"primes": (4,)},
        {"primes": (65537,)},
        {"primes": (2305843009213693951,)},
        {"multipliers": (0,)},
        {"n_max": -1},
        {"stirling_n_max": -1},
        # a repeated value would repeat its rows; pairs compare as rationals
        {"k_values": (1, 2, 1)},
        {"pairs": ((1, 1), (Fraction(2, 2), Fraction(1)))},
        {"primes": (3, 3)},
        {"multipliers": (2, 2)},
        # the rules of Params, checked at every point
        {"pairs": ((Fraction(0), Fraction(1)),)},
        {"k_values": (1, 1.5)},
        # indices, primes and multipliers are ints, as k is: not a float, not a bool
        {"n_max": 2.5},
        {"multipliers": (1.5,)},
        {"stirling_n_max": 3.5},
        {"primes": (3.0,)},
        {"n_max": True},
    ],
)
def test_grid_rules_raise_at_construction(fields):
    with pytest.raises(ValueError):
        GridSpec(**fields)


@pytest.mark.parametrize(
    "point",
    [
        (1.5, 1, 1),
        (True, 1, 1),
        (1, 0, 1),
        (1, 1.5, 1),
        (1, 1, 0.5),
        (1, "1", 1),
        (1.5, 0.5, 1),
        # a bool is a numbers.Rational, and is refused as alpha or a too
        (1, True, 1),
        (1, 1, False),
    ],
)
def test_a_grid_checks_the_point_rules_without_building_a_point(monkeypatch, point):
    # the rules of Params, checked once per k and once per pair with its
    # messages, and no Params built until points() lists the points
    built = []
    check = Params.__init__
    monkeypatch.setattr(Params, "__init__", lambda self, *key: built.append(check(self, *key)))
    assert GridSpec() == DEFAULT_GRID and built == []
    assert len(DEFAULT_GRID.points()) == len(built) == 36
    k, alpha, a = point
    with pytest.raises(ValueError) as direct:
        Params(k, alpha, a)
    with pytest.raises(ValueError) as grid:
        GridSpec(k_values=(2, k), pairs=((2, 1), (alpha, a)))
    assert str(grid.value) == str(direct.value)


def test_run_identity_shapes():
    report = run_identity("THM5", QUICK_GRID)
    assert report.identity == "THM5"
    assert len(report.verdicts) == 2 * 2 * 5
    assert report.summary["fails"] == 0

    report = run_identity("THM8_C1", QUICK_GRID)
    assert len(report.verdicts) == 2 * 2 * 1 * 1
    assert {v.status for v in report.verdicts} <= {HOLDS, FAILS, UNDEFINED}
    assert all(v.hypothesis_ok is not None for v in report.verdicts)


def test_run_identity_p_divides_alpha_row():
    grid = GridSpec(
        n_max=2,
        k_values=(1,),
        pairs=((Fraction(3), Fraction(1, 3)),),
        primes=(3,),
        multipliers=(1,),
    )
    report = run_identity("THM8_C1", grid)
    assert len(report.verdicts) == 1
    verdict = report.verdicts[0]
    assert verdict.status == UNDEFINED
    assert verdict.reason == P_DIVIDES_ALPHA
    assert verdict.hypothesis_ok is False


def test_fails_rows_always_carry_witness():
    for identity in ("EQ10", "EQ11", "EQ12", "THM9", "THM10", "THM11"):
        report = run_identity(identity, QUICK_GRID)
        for verdict in report.verdicts:
            if verdict.status == FAILS:
                assert verdict.lhs is not None and verdict.rhs is not None
                assert verdict.lhs != verdict.rhs
            if verdict.status == UNDEFINED:
                assert verdict.reason is not None


def test_report_rows_are_canonically_sorted():
    for identity in CATALOGUE:
        report = run_identity(identity, QUICK_GRID)
        keys = [tuple(v.point.values()) for v in report.verdicts]
        assert keys
        assert keys == sorted(keys)


# A small grid with a pair singular at m = 4 (SINGULAR_PARAMETER tails from
# n = 4, and THM8 rows at n*p >= 4) and a negative alpha, in canonical order.
ORDER_GRID = GridSpec(
    n_max=4,
    k_values=(-1, 1, 2),
    pairs=(
        (Fraction(-1, 2), Fraction(3)),
        (Fraction(1), Fraction(-4)),
        (Fraction(1), Fraction(1)),
        (Fraction(3), Fraction(1, 3)),
    ),
    primes=(2, 3, 5),
    multipliers=(1, 2),
)
ORDER_REPORTS = {
    label: run_identity(label, ORDER_GRID) for label in CATALOGUE if label != "STIRLING_ORTHO"
}


def point_params(points, verdict):
    """The Params of a verdict's point, out of the list it was run on."""
    key = verdict.point["k"], verdict.point["alpha"], verdict.point["a"]
    (params,) = [params for params, _, _ in points if (params.k, params.alpha, params.a) == key]
    return params


@settings(max_examples=12, deadline=None)
@given(
    st.permutations(ORDER_GRID.pairs),
    st.permutations(ORDER_GRID.k_values),
    st.permutations(ORDER_GRID.primes),
    st.permutations(ORDER_GRID.multipliers),
)
def test_rows_follow_the_point_order_whatever_the_grid_order(pairs, k_values, primes, multipliers):
    # rows come out in canonical point order however the grid lists its
    # values: each key strictly above the last, so no two rows tie
    grid = GridSpec(
        n_max=ORDER_GRID.n_max,
        k_values=tuple(k_values),
        pairs=tuple(pairs),
        primes=tuple(primes),
        multipliers=tuple(multipliers),
    )
    points = grid.points()
    for label, expected in ORDER_REPORTS.items():
        report = run_identity(label, grid, None, points)
        keys = [tuple(v.point.values()) for v in report.verdicts]
        assert all(before < after for before, after in zip(keys, keys[1:]))
        assert report == expected


def slot_values(params: Params) -> list:
    """Every attribute a Params holds, its fields and its memos."""
    return [getattr(params, name) for name in Params.__slots__]


def memo_ids(record):
    """The ids of the containers a point record and its Params keep memos in."""
    params = record.params
    kept = [value for value in slot_values(params) if isinstance(value, (list, dict))]
    memos = [*kept, params._prefix[0], *params._values.values(), record.index, record.plans]
    return {id(memo) for memo in memos}


def held_ids(value) -> set[int]:
    """The ids of `value` and of every object it holds, through lists,
    tuples, sets, dicts (keys and values) and Params' attributes."""
    ids, todo = set(), [value]
    while todo:
        item = todo.pop()
        if id(item) in ids:
            continue
        ids.add(id(item))
        if isinstance(item, dict):
            todo += [*item.keys(), *item.values()]
        elif isinstance(item, (list, tuple, set)):
            todo += item
        elif isinstance(item, Params):
            todo += slot_values(item)
    return ids


def test_each_points_call_lists_new_points_in_canonical_order():
    first = ORDER_GRID.points()
    reports = [run_identity(label, ORDER_GRID, None, first) for label in CATALOGUE]
    second = ORDER_GRID.points()
    keys = [(params.k, params.alpha, params.a) for params, _, _ in second]
    assert keys == list(ORDER_GRID._keys)
    assert [record.params for record in second] == [record.params for record in first]
    # new records and Params with empty memos, whatever a run did to an
    # earlier list
    assert all(index == [] and plans == {} for _, index, plans in second)
    assert all(index and plans for params, index, plans in first if params.k >= 1)
    new = [slot_values(Params(*key)) for key in keys]
    assert all(slot_values(params) == held for (params, _, _), held in zip(second, new))
    assert all(slot_values(params) != held for (params, _, _), held in zip(first, new))
    assert not {id(record.params) for record in first} & {id(record.params) for record in second}
    assert not set().union(*map(memo_ids, first)) & set().union(*map(memo_ids, second))
    # the point dicts and THM8 plans live on the records: after every label
    # has run on the list, no Params holds one
    dicts = {id(v.point) for report in reports for v in report.verdicts}
    plans = {id(plan) for record in first for plan in record.plans.values()}
    assert dicts and plans
    for record in first:
        assert not held_ids(record.params) & (dicts | plans)
        assert all(id(point) in dicts for point in record.index)
    # an equal grid that lists its values in other orders lists equal points
    shuffled = GridSpec(
        n_max=ORDER_GRID.n_max,
        k_values=tuple(reversed(ORDER_GRID.k_values)),
        pairs=tuple(reversed(ORDER_GRID.pairs)),
        primes=tuple(reversed(ORDER_GRID.primes)),
        multipliers=tuple(reversed(ORDER_GRID.multipliers)),
    )
    assert [record.params for record in shuffled.points()] == [params for params, _, _ in second]


def test_the_thm8_labels_build_each_points_plan_once():
    # the reason, point dict and flags of each (n, p) are worked out once
    # per point, into the one plan its record keeps: THM8_C1 builds it, and
    # THM8_C2, THM8_B and any later run on the list read it as it is
    calls = Counter()

    class Counted(Params):
        def singular_index(self, m_max):
            calls[self, m_max] += 1
            return super().singular_index(m_max)

    points = [Point(Counted(*key), [], {}) for key in ORDER_GRID._keys]
    reports = [run_identity(label, ORDER_GRID, None, points) for label in CONGRUENCE.values()]
    assert reports == [ORDER_REPORTS[label] for label in CONGRUENCE.values()]
    congruent = [record for record in points if record.params.k >= 1]
    assert not any(record.plans for record in points if record.params.k < 1)
    for report in reports:
        rows = iter(report.verdicts)
        for record in congruent:
            (plan,) = record.plans.values()
            for (index, point, why, flags), v in zip(plan, rows):
                assert v.point is point and index == point["n"] * point["p"]
                assert v.reason == why if why else v.reason in (None, NONREDUCIBLE_DENOMINATOR)
                assert (v.hypothesis_ok, v.hypothesis_note) == flags
        assert next(rows, None) is None
    # every value a second round reads is kept: it works out no reason again
    calls.clear()
    for label in CONGRUENCE.values():
        assert run_identity(label, ORDER_GRID, None, points) == ORDER_REPORTS[label]
    assert calls == {}


# THM8's grid: evaluable rows at indices below and above n_max = 4, rows
# whose denominator p divides, P_DIVIDES_ALPHA at alpha = 3 with p = 3, and
# SINGULAR_PARAMETER at alpha*m + a = m - 4
THM8_GRID = GridSpec(
    n_max=4,
    k_values=(1, 2),
    pairs=ORDER_GRID.pairs,
    primes=(2, 3, 5),
    multipliers=(1, 2, 3),
)


@pytest.mark.parametrize("label", list(CONGRUENCE.values()))
def test_a_thm8_label_gives_one_report_alone_after_the_others_and_inside_all(label):
    # each point's values come from one pass before its rows; where THM1-THM3
    # or the other THM8 labels ran first on the list, the pass computes only
    # what they did not keep
    alone = run_identity(label, THM8_GRID)
    points = THM8_GRID.points()
    for other in CONGRUENCE.values():
        if other != label:
            run_identity(other, THM8_GRID, None, points)
    after = run_identity(label, THM8_GRID, None, points)
    points = THM8_GRID.points()
    inside = {name: run_identity(name, THM8_GRID, None, points) for name in CATALOGUE}[label]
    assert alone == after == inside
    reasons = Counter(v.reason for v in alone.verdicts)
    assert reasons.keys() >= {None, NONREDUCIBLE_DENOMINATOR, P_DIVIDES_ALPHA, SINGULAR_PARAMETER}
    # every evaluable row's two values, one index at a time on a fresh Params
    family = CATALOGUE[label][2]
    for v in alone.verdicts:
        if v.reason in (None, NONREDUCIBLE_DENOMINATOR):
            point = v.point
            params = Params(point["k"], point["alpha"], point["a"])
            lhs = explicit_value(family, point["n"] * point["p"], params)
            rhs = explicit_value(family, 0, params)
            if v.reason is None:
                assert (v.lhs, v.rhs) == (mod_reduce(lhs, point["p"]), mod_reduce(rhs, point["p"]))
            else:
                assert (v.lhs, v.rhs) == (lhs, rhs)


def test_a_thm8_point_with_no_evaluable_row_computes_no_value():
    # alpha*m + a vanishes at m = 0 at (1, 0) and p = 3 divides alpha = 3 at
    # (3, 1): the pass has nothing to read, and s_0 is not computed either
    grid = GridSpec(k_values=(1, 2), pairs=((1, 0), (3, 1)), primes=(3,), multipliers=(1, 2))
    points = grid.points()
    for label in CONGRUENCE.values():
        report = run_identity(label, grid, None, points)
        assert {v.reason for v in report.verdicts} == {SINGULAR_PARAMETER, P_DIVIDES_ALPHA}
    for record in points:
        assert record.params._values == {} and record.params._sums == {}
        assert record.params._prefix == ([], 1)


# every label that reads a cauchy family, in pairs read in either order
CAUCHY_PAIRS = [
    ("THM2", "THM3"), ("THM5", "THM6"), ("EQ11", "EQ12"), ("THM8_C1", "THM8_C2"), ("EQ9", "EQ10")
]


@pytest.mark.parametrize("pair", CAUCHY_PAIRS, ids="-".join)
def test_the_cauchy_twins_give_their_own_rows_in_either_order_on_one_list(pair):
    # the two cauchy families share the halves of their sums: on one point
    # list each label gives the rows it gives alone, whichever runs first
    for labels in (pair, pair[::-1]):
        points = ORDER_GRID.points()
        reports = [run_identity(label, ORDER_GRID, None, points) for label in labels]
        assert reports == [ORDER_REPORTS[label] for label in labels]


def test_the_cauchy_pair_builds_each_first_kind_row_once_per_run_pair(monkeypatch):
    # both cauchy entries read one counted coefficient object: a row built is
    # its coefficient at m = 0 read. On one point list the second label of a
    # pair reads the halves the first left and builds no row; on two lists
    # each label builds its own
    built = Counter()
    coeff, *_ = sequences._STIRLING_COEFF[Family.CAUCHY1]

    def counted(n, m):
        built[n] += m == 0
        return coeff(n, m)

    for family in (Family.CAUCHY1, Family.CAUCHY2):
        _, *sign = sequences._STIRLING_COEFF[family]
        monkeypatch.setitem(sequences._STIRLING_COEFF, family, (counted, *sign))
    for pair in [("THM2", "THM3"), ("THM8_C1", "THM8_C2")]:
        for labels in (pair, pair[::-1]):
            for shared in (True, False):
                built.clear()
                points = ORDER_GRID.points()
                for label in labels:
                    report = run_identity(label, ORDER_GRID, None, points)
                    assert report == ORDER_REPORTS[label]
                    points = points if shared else ORDER_GRID.points()
                assert built and set(built.values()) == {1 if shared else 2}


def test_thm9_and_thm10_rows_hold_the_same_printed_objects(monkeypatch):
    # both cauchy families read one printed rule: with one list, THM10's
    # rows hold the Fractions THM9 built, at every evaluable index
    def printed_pairs(points):
        thm9 = run_identity("THM9", ORDER_GRID, None, points).verdicts
        thm10 = run_identity("THM10", ORDER_GRID, None, points).verdicts
        assert [v.point for v in thm9] == [v.point for v in thm10]
        return [(x.lhs, y.lhs) for x, y in zip(thm9, thm10) if x.status != UNDEFINED]

    shared = printed_pairs(ORDER_GRID.points())
    assert shared and all(x is y for x, y in shared)
    # a rule of its own, equal in value, gives THM10 sums of its own
    coeff, reach = sequences._DERIV_COEFF[Family.CAUCHY2]
    own = (lambda n, m: coeff(n, m), reach)
    monkeypatch.setitem(sequences._DERIV_COEFF, Family.CAUCHY2, own)
    apart = printed_pairs(ORDER_GRID.points())
    assert apart == shared and all(x is not y for x, y in apart)


def test_printed_coefficients_are_one_fraction_per_rule_and_index():
    # whatever last index a call asks for, as THM9-THM11 stop at each point's
    # own: a Params keeps one printed Fraction per (rule, n), which the two
    # cauchy families share
    params = Params(2, Fraction(1, 2), 1)
    for family in Family:
        short = deriv_coeffs_printed(family, 3, params)
        long = deriv_coeffs_printed(family, 5, params)
        assert len(short) == 4 and all(map(operator.is_, short, long))
        assert all(map(operator.is_, deriv_coeffs_printed(family, 2, params), long))
    cauchy1 = deriv_coeffs_printed(Family.CAUCHY1, 4, params)
    assert all(map(operator.is_, deriv_coeffs_printed(Family.CAUCHY2, 5, params), cauchy1))


def test_collapse_rows_hold_the_points_weights():
    # THM5's right side is the weight Fraction that Params keeps, THM6's the
    # weight or its negation, THM4's n! times the weight
    points = ORDER_GRID.points()
    for label in ("THM4", "THM5", "THM6"):
        held = 0
        for v in run_identity(label, ORDER_GRID, None, points).verdicts:
            if v.status != HOLDS:
                continue
            n = v.point["n"]
            weight = point_params(points, v).weights(n)[n]
            assert v.lhs is v.rhs
            if label == "THM5" or label == "THM6" and n % 2 == 0:
                assert v.rhs is weight
            else:
                assert v.rhs == weight * (factorial(n) if label == "THM4" else -1)
            held += 1
        assert held


def test_hypothesis_flags_are_computed_once_per_point_and_prime(monkeypatch):
    calls = Counter()
    flags = audit._hypothesis_flags

    def counted(params, p):
        calls[params, p] += 1
        return flags(params, p)

    monkeypatch.setattr(audit, "_hypothesis_flags", counted)
    points = ORDER_GRID.points()
    for label in CONGRUENCE.values():
        assert run_identity(label, ORDER_GRID, None, points) == ORDER_REPORTS[label]
    congruent = [params for params, _, _ in points if params.k >= 1]
    assert calls == {(params, p): 1 for params in congruent for p in ORDER_GRID.primes}


def test_the_order_grid_has_every_row_kind():
    statuses = Counter(
        (v.status, v.reason) for report in ORDER_REPORTS.values() for v in report.verdicts
    )
    assert statuses[UNDEFINED, SINGULAR_PARAMETER] and statuses[UNDEFINED, P_DIVIDES_ALPHA]
    assert statuses[UNDEFINED, NONREDUCIBLE_DENOMINATOR]
    assert statuses[HOLDS, None] and statuses[FAILS, None]
    assert all(report.verdicts for report in ORDER_REPORTS.values())


def test_every_row_is_decided_once_across_the_catalogue():
    # every label on one list of the order grid, as one command runs them,
    # and a variant EQ11 whose Fraction numerators decide both kinds of row:
    # a HOLDS row holds one object as both sides, a FAILS row two unequal
    # ones, and a value identity's UNDEFINED row none
    points = ORDER_GRID.points()
    reports = [run_identity(label, ORDER_GRID, None, points) for label in CATALOGUE]
    reports.append(run_identity("EQ11", ORDER_GRID, duality_prefactor("m", -1)))
    statuses = Counter()
    for report in reports:
        congruence = CATALOGUE[report.identity][1] is _congruence_rows
        for v in report.verdicts:
            statuses[v.status] += 1
            if v.status == HOLDS:
                assert v.rhs is v.lhs, (report.identity, v)
            elif v.status == FAILS:
                assert v.lhs != v.rhs, (report.identity, v)
            elif not congruence:
                assert v.lhs is None and v.rhs is None, (report.identity, v)
    assert statuses[HOLDS] and statuses[FAILS] and statuses[UNDEFINED]
    assert reports[-1].summary == {"holds": 33, "fails": 24, "undefined": 3}


VALUE_IDENTITIES = [
    label for label, (_, rows, _) in CATALOGUE.items()
    if rows not in (_congruence_rows, _stirling_orthogonality)
]


def test_value_rows_compare_no_fraction_twice(monkeypatch):
    # every value identity decides every row on integers, the series side of
    # THM1-THM3 and THM9-THM11 too: no Fraction is compared at all, whether
    # a run fills the list or reads what earlier runs kept
    assert len(VALUE_IDENTITIES) == 13
    points = ORDER_GRID.points()
    compared = []
    equal = Fraction.__eq__

    def counted(self, other):
        compared.append(self)
        return equal(self, other)

    monkeypatch.setattr(Fraction, "__eq__", counted)
    reports = [
        run_identity(label, ORDER_GRID, None, points)
        for _ in range(2)
        for label in VALUE_IDENTITIES
    ]
    monkeypatch.undo()
    assert compared == []
    summaries = {report.identity: report.summary for report in reports}
    assert all(summaries[label]["holds"] for label in VALUE_IDENTITIES if label != "THM10")
    assert all(summaries[label]["fails"] for label in ("EQ10", "THM9", "THM10", "THM11"))


def test_value_rows_are_the_verdicts_the_named_tuple_makes():
    # rows made at tuple cost are Verdicts equal to those Verdict() makes:
    # a HOLDS row at n = 0, where one object is both sides, FAILS rows after
    # it, and at (1, 1, -2) a SINGULAR_PARAMETER tail from n = 2
    grid = GridSpec(n_max=3, k_values=(1,), pairs=((1, 1), (1, -2)))

    def sides(params, last):
        lhs = [Fraction(n) for n in range(last + 1)]
        return lhs, [lhs[0], *(Fraction(-n) for n in range(1, last + 1))]

    rows = _value_rows(grid, grid.points(), 0, sides)
    assert all(type(v) is Verdict for v in rows)

    def point(a, n):
        return {"k": 1, "alpha": 1, "a": a, "n": n}

    expected = [
        Verdict(HOLDS, point(-2, 0), Fraction(0), Fraction(0)),
        Verdict(FAILS, point(-2, 1), Fraction(1), Fraction(-1)),
        Verdict(UNDEFINED, point(-2, 2), reason=SINGULAR_PARAMETER),
        Verdict(UNDEFINED, point(-2, 3), reason=SINGULAR_PARAMETER),
        Verdict(HOLDS, point(1, 0), Fraction(0), Fraction(0)),
        *(Verdict(FAILS, point(1, n), Fraction(n), Fraction(-n)) for n in (1, 2, 3)),
    ]
    assert rows == expected
    assert [v._asdict() for v in rows] == [v._asdict() for v in expected]


def test_verdict_contract():
    point = {"k": 1, "n": 0}
    by_keyword = Verdict(status=HOLDS, point=point)
    assert (by_keyword.lhs, by_keyword.rhs, by_keyword.reason) == (None, None, None)
    assert (by_keyword.hypothesis_ok, by_keyword.hypothesis_note) == (None, None)
    by_position = Verdict(FAILS, point, Fraction(1, 2), 3)
    assert (by_position.status, by_position.point) == (FAILS, point)
    assert (by_position.lhs, by_position.rhs, by_position.reason) == (Fraction(1, 2), 3, None)
    assert by_position.hypothesis_ok is None and by_position.hypothesis_note is None
    assert by_keyword == Verdict(HOLDS, {"k": 1, "n": 0}, None, None, None, None, None)
    assert by_keyword != by_position
    for field in ("status", "point", "lhs", "hypothesis_note"):
        with pytest.raises(AttributeError):
            setattr(by_keyword, field, None)
    assert AuditReport("THM1", [by_keyword, by_position]) == AuditReport(
        "THM1",
        [Verdict(status=HOLDS, point=dict(point)), Verdict(FAILS, point, Fraction(1, 2), 3)],
    )
    assert AuditReport("THM1", [by_keyword]) != AuditReport("THM2", [by_keyword])
    assert hlpoly.Verdict is Verdict and "Verdict" in hlpoly.__all__
    # a named tuple: it iterates over its fields and equals a plain tuple
    assert list(by_position) == [FAILS, point, Fraction(1, 2), 3, None, None, None]
    assert by_position == (FAILS, point, Fraction(1, 2), 3, None, None, None)


class _CountedEq(Fraction):
    """A Fraction that counts the comparisons made on it."""

    compared = 0

    def __eq__(self, other):
        _CountedEq.compared += 1
        return super().__eq__(other)

    __hash__ = Fraction.__hash__


def test_a_row_holds_one_object_for_equal_sides(monkeypatch):
    grid = GridSpec(n_max=1, k_values=(1,), pairs=((1, 1),))
    # one object as both sides holds, and is not compared at all
    _CountedEq.compared = 0
    one = _CountedEq(1, 2)
    held = _value_rows(grid, grid.points(), 0, lambda params, last: ([one] * (last + 1),) * 2)
    assert all(v.status == HOLDS and v.lhs is one and v.rhs is one for v in held)
    assert len(held) == 2 and _CountedEq.compared == 0
    # a FAILS row keeps both witnesses
    lhs, rhs = Fraction(1, 3), Fraction(1, 2)
    failed = _value_rows(grid, grid.points(), 0, lambda params, last: ([lhs] * 2, [rhs] * 2))
    assert all(v.status == FAILS and v.lhs is lhs and v.rhs is rhs for v in failed)
    # the shared helper decides each row on integers: an equal value is the
    # known object, an unequal one a new witness, and none is compared
    known = [_CountedEq(1, 2), _CountedEq(1, 3)]
    _CountedEq.compared = 0
    values = decided(known, [2, 2], 4)
    assert values[0] is known[0] and values[1] == Fraction(1, 2)
    assert type(values[1]) is Fraction and _CountedEq.compared == 0
    # THM8's equal residues, here two distinct ints past the small-int cache,
    # hold one object; the hypothesis flags pass through
    monkeypatch.setattr(audit, "mod_reduce", lambda value, p: int(str(10**30)))
    grid = GridSpec(n_max=0, k_values=(1,), pairs=((1, 1),), primes=(3,), multipliers=(1,))
    (v,) = run_identity("THM8_C1", grid).verdicts
    assert v.status == HOLDS and v.lhs == 10**30 and v.rhs is v.lhs
    note = "alpha*m + a not invertible mod 3 at m = 2"
    assert (v.hypothesis_ok, v.hypothesis_note) == (False, note)


# points with negative k, k = 0, a non-integer alpha or a, and a negative alpha
DECIDED_GRID = GridSpec(
    n_max=6,
    k_values=(-2, 0, 1, 3),
    pairs=((1, 1), (Fraction(1, 2), 1), (3, Fraction(1, 3)), (Fraction(-1, 2), Fraction(7, 3))),
)


def test_integer_decided_holds_rows_keep_one_fraction():
    # THM4-THM6 and EQ9-EQ12 decide each row on integers: a HOLDS row holds
    # one Fraction as both sides, and EQ9-EQ12's is the left side that the
    # point's Params keeps, the very Fraction explicit_value returns
    points = DECIDED_GRID.points()
    statuses = Counter()
    proved, printed = ("THM4", "THM5", "THM6", "EQ9"), ("EQ10", "EQ11", "EQ12")
    for label in proved + printed:
        for v in run_identity(label, DECIDED_GRID, None, points).verdicts:
            statuses[label, v.status] += 1
            assert type(v.lhs) is Fraction and type(v.rhs) is Fraction
            if v.status == FAILS:
                assert v.lhs != v.rhs
                continue
            assert v.status == HOLDS and v.rhs is v.lhs
            if label.startswith("EQ"):
                family = CATALOGUE[label][2]
                assert explicit_value(family, v.point["n"], point_params(points, v)) is v.lhs
    # every row of the proved identities holds, and the printed EQ10-EQ12
    # give both kinds of row
    assert not any(statuses[label, FAILS] for label in proved)
    assert all(statuses[label, FAILS] and statuses[label, HOLDS] for label in printed)


def test_a_decided_value_is_the_known_fraction_where_they_are_equal():
    known = [Fraction(1, 2), Fraction(-2, 3), Fraction(5)]
    values = decided(known, [3, -4, 31], 6)  # 1/2, -2/3 and 31/6
    assert values[0] is known[0] and values[1] is known[1]
    # an unequal value is a new Fraction in lowest terms
    assert values[2] == Fraction(31, 6) and type(values[2]) is Fraction
    assert (values[2].numerator, values[2].denominator) == (31, 6)
    assert decided([Fraction(1)], [4], 6)[0].denominator == 3
    # Fraction numerators, as a (m!)^-1 prefactor makes them
    values = decided(known, [Fraction(3, 2), Fraction(-2), Fraction(1, 3)], 3)
    assert values == [known[0], known[1], Fraction(1, 9)]
    assert values[0] is known[0] and values[1] is known[1] and type(values[2]) is Fraction
    # numerators and known values are read pairwise: a length apart is an error
    with pytest.raises(ValueError):
        decided(known, [3, -4], 6)


@pytest.mark.parametrize("label", sorted(ERRATA))
def test_every_corrected_prefactor_holds_with_one_fraction(label):
    # the corrected EQ11 and EQ12 prefactors, with (m!)^-1, make Fraction
    # c_l, so their double sums' numerators are Fractions; those decide each
    # row as the integer ones of EQ9 and EQ10 do
    report = run_identity(label, DECIDED_GRID, duality_prefactor(*ERRATA[label]))
    assert report.summary == {"holds": 4 * 4 * 7, "fails": 0, "undefined": 0}
    assert all(type(v.lhs) is Fraction and v.rhs is v.lhs for v in report.verdicts)


def test_grids_and_reports_are_values():
    # a grid's fields alone fix equality, hash and repr, and none can be
    # assigned or deleted; a copy or a pickled copy is an equal grid
    grid = GridSpec(n_max=3, k_values=(1,), pairs=((1, Fraction(1, 2)),), primes=(3,))
    assert repr(grid) == (
        "GridSpec(n_max=3, k_values=(1,), pairs=((1, Fraction(1, 2)),), primes=(3,), "
        "multipliers=(1, 2, 3), stirling_n_max=20)"
    )
    again = GridSpec(3, (1,), ((Fraction(1), Fraction(1, 2)),), (3,), (1, 2, 3), 20)
    assert grid == again and hash(grid) == hash(again)
    assert GridSpec() == DEFAULT_GRID and hash(GridSpec()) == hash(DEFAULT_GRID)
    assert grid != GridSpec(3, (1,), ((1, Fraction(1, 2)),), (5,))
    # the same values listed in another order make the same points, not an
    # equal grid
    reordered = GridSpec(3, (1,), ((1, Fraction(1, 2)),), (3,), (3, 2, 1))
    assert reordered != grid and reordered._keys == grid._keys
    fields = ("n_max", "k_values", "pairs", "primes", "multipliers", "stirling_n_max")
    assert grid != tuple(getattr(grid, field) for field in fields)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(grid, field, getattr(grid, field))
        with pytest.raises(AttributeError):
            delattr(grid, field)
    for same in (copy.copy(grid), pickle.loads(pickle.dumps(grid))):
        assert same == grid and repr(same) == repr(grid)
        assert same.points() == grid.points()
    # a report compares its identity and verdicts, is not hashable, and its
    # verdict list can be replaced
    verdict = Verdict(HOLDS, {"k": 1, "n": 0}, Fraction(1), Fraction(1))
    report = AuditReport("THM1", [verdict])
    assert report == AuditReport("THM1", [Verdict(HOLDS, {"k": 1, "n": 0}, 1, 1)])
    assert report != AuditReport("THM2", [verdict]) and report != AuditReport("THM1", [])
    assert report != ("THM1", [verdict])
    assert repr(AuditReport("THM1", [])) == "AuditReport(identity='THM1', verdicts=[])"
    with pytest.raises(TypeError):
        hash(report)
    report.verdicts = []
    assert report == AuditReport("THM1", [])
    assert report.summary == {"holds": 0, "fails": 0, "undefined": 0}


def test_reports_are_reproducible():
    first = run_identity("EQ11", QUICK_GRID)
    second = run_identity("EQ11", QUICK_GRID)
    assert first == second


def test_exit_code_contract():
    holds = run_identity("EQ9", QUICK_GRID)
    fails = run_identity("EQ11", QUICK_GRID)
    undef = run_identity(
        "THM8_C1",
        GridSpec(k_values=(1,), pairs=((Fraction(2), Fraction(1)),), primes=(3,), multipliers=(1,)),
    )
    assert exit_code([holds]) == 0
    assert exit_code([holds, fails]) == 1
    assert exit_code([holds, undef]) == 2
    assert exit_code([fails, undef]) == 1


def test_undefined_tallied_separately():
    report = run_identity(
        "THM8_C1",
        GridSpec(k_values=(1,), pairs=((Fraction(2), Fraction(1)),), primes=(3,), multipliers=(1,)),
    )
    summary = report.summary
    assert summary["undefined"] == 1
    assert summary["holds"] == 0 and summary["fails"] == 0


def test_default_grid_is_documented_shape():
    assert DEFAULT_GRID.n_max == 12
    assert DEFAULT_GRID.k_values == (-2, -1, 0, 1, 2, 3)
    assert len(DEFAULT_GRID.pairs) == 6
    assert DEFAULT_GRID.primes == (3, 5, 7, 11)
    assert DEFAULT_GRID.stirling_n_max == 20
