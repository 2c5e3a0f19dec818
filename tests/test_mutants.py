"""Committed mutants: one wrong coefficient in a value table turns the
matching audit FAILS.

The Stirling-sum path and the series path share no code, so a wrong sign or
value on one side shows against the other: this checks the independence
invariant by behaviour, as tests/test_independence.py checks it by imports.

Each mutant runs after a warm-up audit of the unpatched code, so that a
table keyed too coarsely would serve the unpatched values and hide it: the
kernel powers keyed by kernel name, a point's Stirling sums kept past its
command, or coefficient rows (THM8's, THM9-THM11's derivative rows) that
outlive their run. EQ9-EQ12's and STIRLING_ORTHO's triangle products and
THM4-THM6's triangle rows do outlive their run: the process keeps them, keyed
by the functions a run reads when it starts, so a patched table entry or
binding is a new key with fresh rows. Within one command the cauchy pair
shares the halves of its sums, keyed by coefficient function, so a mutant for
one family is never served the halves the other left. After the patch is
undone, the audit holds again: no cache kept the mutant either.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from hlpoly import audit, sequences, series
from hlpoly.cli import main
from hlpoly.sequences import Family

GRID = ["--n-max", "5", "--pair", "1,1", "--pair", "1/2,1", "--k-values=-1,1,2"]


def fails(capsys, token: str) -> dict[str, int]:
    """FAILS per label of `audit --identity token` on GRID."""
    code = main(["audit", "--identity", token, "--format", "json", *GRID])
    reports = json.loads(capsys.readouterr().out)["reports"]
    counts = {r["identity"]: r["summary"]["fails"] for r in reports}
    assert code == (1 if any(counts.values()) else 0)
    return counts


def assert_caught(capsys, monkeypatch, token, label, table, key, mutant):
    assert fails(capsys, token)[label] == 0
    monkeypatch.setitem(table, key, mutant)
    assert fails(capsys, token)[label] > 0
    monkeypatch.undo()
    assert fails(capsys, token)[label] == 0


EXPLICIT = [(Family.BERNOULLI, "THM1"), (Family.CAUCHY1, "THM2"), (Family.CAUCHY2, "THM3")]


@pytest.mark.parametrize("family, label", EXPLICIT, ids=[label for _, label in EXPLICIT])
def test_a_sign_in_a_stirling_coefficient_fails_its_explicit_identity(
    capsys, monkeypatch, family, label
):
    coeff, *rest = sequences._STIRLING_COEFF[family]

    def mutant(n, m):
        return -coeff(n, m) if m == 1 else coeff(n, m)

    table = sequences._STIRLING_COEFF
    assert_caught(capsys, monkeypatch, label.lower(), label, table, family, (mutant, *rest))


SCAN = ["--pair", "1,1", "--pair", "1/2,3/2", "--k-values", "1,2", "--primes", "3,5",
        "--multipliers", "1,2"]


@pytest.mark.parametrize("family", list(Family), ids=[family.value for family in Family])
def test_a_sign_in_a_stirling_coefficient_changes_the_congruence_scan(
    capsys, monkeypatch, family
):
    # THM8 fails on most rows of any grid, so the check compares the CSV
    # bytes: a row store that outlived its run would keep the scan's output
    def scan() -> str:
        main(["congruence-scan", "--family", family.value, "--format", "csv", *SCAN])
        return capsys.readouterr().out

    clean = scan()
    coeff, *rest = sequences._STIRLING_COEFF[family]

    def mutant(n, m):
        return -coeff(n, m) if m == 1 else coeff(n, m)

    monkeypatch.setitem(sequences._STIRLING_COEFF, family, (mutant, *rest))
    assert scan() != clean
    monkeypatch.undo()
    assert scan() == clean


# THM8 computes a point's values in one pass before its rows, which read
# them as kept: a pass that fills one index with a wrong value changes the
# rows that read it, which the scan's canonical CSV digest pins
SCAN_CSV_SHA256 = "f59cd3845dcb09a99a55612a2b5db8762aa65a95593aa3cce86f3a01b8f8ff2a"


def test_a_wrong_value_in_thm8s_pass_changes_the_canonical_scan(capsys, monkeypatch):
    def digest() -> str:
        assert main(["congruence-scan", "--format", "csv"]) == 1
        return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()

    assert digest() == SCAN_CSV_SHA256
    signed_sums = sequences._signed_sums

    def mutant(rule, indices, params, rows):
        nums, den = signed_sums(rule, indices, params, rows)
        if len(indices) > 1:  # the pass, not a single value
            nums[-1] += den  # s at the pass's last index, off by one
        return nums, den

    monkeypatch.setattr(sequences, "_signed_sums", mutant)
    assert digest() != SCAN_CSV_SHA256
    monkeypatch.undo()
    assert digest() == SCAN_CSV_SHA256


# The cauchy pair shares the halves of its sums, kept per coefficient
# function. A mutant coefficient for one family is a function of its own, so
# it gets halves of its own even where the other family has filled the shared
# ones first: the halves are keyed by the function the run reads, not by the
# family.
def reports(capsys, token: str) -> dict[str, dict]:
    """The JSON report of each label of `audit --identity token` on GRID."""
    main(["audit", "--identity", token, "--format", "json", *GRID])
    return {r["identity"]: r for r in json.loads(capsys.readouterr().out)["reports"]}


def sign_at_one(family):
    """The family's table entry with c(n, 1) negated."""
    coeff, *rest = sequences._STIRLING_COEFF[family]
    return (lambda n, m: -coeff(n, m) if m == 1 else coeff(n, m)), *rest


def test_a_cauchy2_mutant_after_cauchy1_filled_the_halves_fails_thm3(capsys, monkeypatch):
    # one command: THM2 and THM8_C1 run first and fill the shared halves
    clean = reports(capsys, "all")
    assert clean["THM2"]["summary"]["fails"] == clean["THM3"]["summary"]["fails"] == 0
    monkeypatch.setitem(sequences._STIRLING_COEFF, Family.CAUCHY2, sign_at_one(Family.CAUCHY2))
    mutated = reports(capsys, "all")
    assert mutated["THM3"]["summary"]["fails"] > 0 and mutated["THM8_C2"] != clean["THM8_C2"]
    assert all(mutated[label] == clean[label] for label in ("THM2", "THM8_C1"))
    monkeypatch.undo()
    assert reports(capsys, "all") == clean


def test_a_cauchy1_mutant_after_cauchy2_filled_the_halves_fails_thm2(monkeypatch):
    # the reverse order, which no command runs: cauchy2's labels first on
    # one point list
    grid = audit.GridSpec(n_max=5, k_values=(-1, 1, 2), pairs=((1, 1), (Fraction(1, 2), 1)))
    labels = ("THM3", "THM8_C2", "THM2", "THM8_C1")

    def run() -> dict:
        points = grid.points()
        return {label: audit.run_identity(label, grid, None, points) for label in labels}

    clean = run()
    explicit = [v.status for label in ("THM2", "THM3") for v in clean[label].verdicts]
    assert audit.FAILS not in explicit
    monkeypatch.setitem(sequences._STIRLING_COEFF, Family.CAUCHY1, sign_at_one(Family.CAUCHY1))
    mutated = run()
    assert any(v.status == audit.FAILS for v in mutated["THM2"].verdicts)
    assert mutated["THM8_C1"] != clean["THM8_C1"]
    assert all(mutated[label] == clean[label] for label in ("THM3", "THM8_C2"))
    monkeypatch.undo()
    assert run() == clean


# c_n = (-1)^n (E_n - O_n) and ch_n = (-1)^n (E_n + O_n): the entries' of_m
# swapped give each family the other's sum, which its series side refutes
def test_swapped_halves_fail_thm2_and_thm3(capsys, monkeypatch):
    table = sequences._STIRLING_COEFF
    twins = table[Family.CAUCHY1], table[Family.CAUCHY2]
    assert [entry[:3] for entry in twins] == [twins[0][:3]] * 2 and twins[0] != twins[1]
    assert fails(capsys, "all")["THM2"] == fails(capsys, "all")["THM3"] == 0
    monkeypatch.setitem(table, Family.CAUCHY1, twins[1])
    monkeypatch.setitem(table, Family.CAUCHY2, twins[0])
    counts = fails(capsys, "all")
    assert counts["THM2"] > 0 and counts["THM3"] > 0
    monkeypatch.undo()
    assert fails(capsys, "all")["THM2"] == 0


def test_a_sign_in_a_derivative_coefficient_changes_thm11(capsys, monkeypatch):
    # THM11 fails on most grids, so the check compares the report bytes: a
    # derivative row store that outlived its run would keep them
    def thm11() -> str:
        main(["audit", "--identity", "thm11", "--format", "json", *GRID])
        return capsys.readouterr().out

    clean = thm11()
    coeff, reach = sequences._DERIV_COEFF[Family.BERNOULLI]

    def mutant(n, m):
        return -coeff(n, m) if m == 1 else coeff(n, m)

    monkeypatch.setitem(sequences._DERIV_COEFF, Family.BERNOULLI, (mutant, reach))
    assert thm11() != clean
    monkeypatch.undo()
    assert thm11() == clean


# each composed kernel, and the identity whose series side it feeds
KERNELS = [("one_minus_exp_neg", "THM1"), ("log1p", "THM2"), ("neg_log1p", "THM3")]


@pytest.mark.parametrize("name, label", KERNELS, ids=[name for name, _ in KERNELS])
def test_one_kernel_value_fails_its_explicit_identity(capsys, monkeypatch, name, label):
    value = series._KERNELS[name]

    def mutant(n):
        return value(n) + (n == 3)

    assert_caught(capsys, monkeypatch, label.lower(), label, series._KERNELS, name, mutant)


# THM1's series side decides its integers against the Stirling values it is
# given: one wrong numerator must still fail, with the series' own value
def test_one_series_numerator_fails_thm1_with_the_series_value(capsys, monkeypatch):
    weighted = series._weighted_power_sum

    def mutant(g, weights, den):
        f = weighted(g, weights, den)
        return series.PowerSeries((*f.nums[:3], f.nums[3] + 1, *f.nums[4:]), f.den)

    grid = audit.GridSpec(n_max=5, k_values=(-1, 1, 2), pairs=((1, 1), (Fraction(1, 2), 1)))
    assert fails(capsys, "thm1")["THM1"] == 0
    monkeypatch.setattr(series, "_weighted_power_sum", mutant)
    failed = [v for v in audit.run_identity("THM1", grid).verdicts if v.status == audit.FAILS]
    assert len(failed) == 6 and {v.point["n"] for v in failed} == {3}
    for v in failed:
        point = [v.point[key] for key in ("k", "alpha", "a")]
        assert v.lhs == sequences.explicit_value(Family.BERNOULLI, 3, sequences.Params(*point))
        # the run's series, composed to the order index 5 asks for
        series_value = sequences.oracle_sequence(Family.BERNOULLI, 5, sequences.Params(*point))
        assert type(v.rhs) is Fraction and v.rhs == series_value[3] != v.lhs
    assert fails(capsys, "thm1")["THM1"] == len(failed)
    monkeypatch.undo()
    assert fails(capsys, "thm1")["THM1"] == 0


def test_one_duality_prefactor_fails_eq9(capsys, monkeypatch):
    summed_family, triangle, printed = audit._DUALITY_SHAPE["EQ9"]

    def mutant(n, m):
        return -printed(n, m) if (n, m) == (2, 1) else printed(n, m)

    shape = (summed_family, triangle, mutant)
    assert_caught(capsys, monkeypatch, "eq9", "EQ9", audit._DUALITY_SHAPE, "EQ9", shape)


# THM4-THM6 read their rule from the table when a run starts: without (-1)^n
# the odd rows of THM6 fail
def test_a_dropped_collapse_sign_fails_thm6(capsys, monkeypatch):
    triangle, _ = audit._COLLAPSE_SHAPE[Family.CAUCHY2]
    shape = (triangle, lambda n: 1)
    table = audit._COLLAPSE_SHAPE
    assert_caught(capsys, monkeypatch, "thm6", "THM6", table, Family.CAUCHY2, shape)


# THM4-THM6 read their triangle when a run starts: a triangle row store kept
# by family, not by triangle function, would serve the unpatched rows
def test_a_sign_in_a_collapse_triangle_fails_thm4(capsys, monkeypatch):
    triangle, factor = audit._COLLAPSE_SHAPE[Family.BERNOULLI]

    def mutant(n, m):
        return -triangle(n, m) if m == 1 else triangle(n, m)

    table = audit._COLLAPSE_SHAPE
    assert_caught(capsys, monkeypatch, "thm4", "THM4", table, Family.BERNOULLI, (mutant, factor))


# STIRLING_ORTHO reads both triangles when its run starts: one wrong entry of
# {n m} fails the sums that read it. Each sum is decided on integers, and a
# FAILS row still keeps both sides as unequal Fractions, its witness.
def test_a_sign_in_a_stirling_triangle_fails_stirling_ortho(capsys, monkeypatch):
    second = audit.stirling2

    def mutant(n, m):
        return -second(n, m) if (n, m) == (3, 2) else second(n, m)

    assert fails(capsys, "stirling-ortho")["STIRLING_ORTHO"] == 0
    monkeypatch.setattr(audit, "stirling2", mutant)
    failed = [v for v in audit.run_identity("STIRLING_ORTHO").verdicts if v.status == audit.FAILS]
    assert failed
    for v in failed:
        assert type(v.lhs) is Fraction and type(v.rhs) is Fraction and v.lhs != v.rhs
    assert fails(capsys, "stirling-ortho")["STIRLING_ORTHO"] == len(failed)
    monkeypatch.undo()
    assert fails(capsys, "stirling-ortho")["STIRLING_ORTHO"] == 0
