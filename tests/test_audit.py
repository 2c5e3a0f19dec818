from fractions import Fraction

import pytest

from hlpoly.audit import (
    DEFAULT_GRID,
    FAILS,
    GridSpec,
    HOLDS,
    NONREDUCIBLE_DENOMINATOR,
    P_DIVIDES_ALPHA,
    SINGULAR_PARAMETER,
    UNDEFINED,
    _index_comparison,
    audit_stirling_orthogonality,
    exit_code,
    run_identity,
)
from hlpoly.sequences import Family, Params, deriv_coeffs_oracle

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


def test_congruence_consistent_with_exact_recomputation():
    # recompute both residues through the generating-function path, which
    # shares nothing with the Stirling sums the audit reduces
    from hlpoly.exact import mod_reduce
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
    verdicts = _index_comparison(
        Family.CAUCHY1, 10, P111, 1, deriv_coeffs_oracle, deriv_coeffs_oracle
    )
    assert len(verdicts) == 11
    assert all(v.status == HOLDS for v in verdicts)


def test_audit_derivative_bernoulli_agrees_then_diverges():
    report = one_point("THM11", P111, 3)
    assert [v.status for v in report.verdicts] == [HOLDS, HOLDS, FAILS, FAILS]
    assert report.verdicts[2].lhs == Fraction(13, 6)
    assert report.verdicts[2].rhs == Fraction(5, 6)


# -- stirling orthogonality ---------------------------------------------------


def test_stirling_orthogonality_holds_to_20():
    report = audit_stirling_orthogonality(20)
    assert report.summary["fails"] == 0
    assert report.summary["undefined"] == 0
    # both triangle orders, full triangle each
    assert len(report.verdicts) == 2 * (21 * 22 // 2)


def test_stirling_orthogonality_diagonal_points():
    report = audit_stirling_orthogonality(3)
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
    ],
)
def test_grid_rules_raise_at_construction(fields):
    with pytest.raises(ValueError):
        GridSpec(**fields)


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
    report = run_identity("THM4", QUICK_GRID)
    keys = [
        (v.point["k"], v.point["alpha"], v.point["a"], v.point["n"])
        for v in report.verdicts
    ]
    assert keys == sorted(keys)


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
