import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlpoly import cli, sequences
from hlpoly.audit import CATALOGUE, FAILS, HOLDS, UNDEFINED, AuditReport, GridSpec, Verdict
from hlpoly.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- table --------------------------------------------------------------------


def test_table_cauchy1_fixture(capsys):
    code, out, err = run(
        capsys,
        "table", "--family", "cauchy1", "--k", "1", "--alpha", "1", "--a", "1",
        "--n-max", "3", "--format", "csv",
    )
    assert code == 0
    assert out == "0,1\n1,1/2\n2,-1/6\n3,1/4\n"
    assert err == ""


def test_table_bernoulli_fixture(capsys):
    code, out, _ = run(
        capsys,
        "table", "--family", "bernoulli", "--k", "1", "--alpha", "1", "--a", "1",
        "--n-max", "3",
    )
    assert code == 0
    assert out == "0,1\n1,1/2\n2,1/6\n3,0\n"


def test_table_oracle_method_agrees(capsys):
    base = ["table", "--family", "cauchy2", "--k", "2", "--alpha", "1/2",
            "--a", "1", "--n-max", "5"]
    _, formula_out, _ = run(capsys, *base, "--method", "formula")
    _, oracle_out, _ = run(capsys, *base, "--method", "oracle")
    assert formula_out == oracle_out


def test_table_method_both_disagreement_column_empty(capsys):
    code, out, _ = run(
        capsys,
        "table", "--family", "bernoulli", "--k", "-2", "--alpha", "3",
        "--a", "1/3", "--n-max", "6", "--method", "both",
    )
    assert code == 0
    for line in out.splitlines():
        assert line.endswith(",")  # empty disagreement column everywhere
        n, formula, oracle, disagreement = line.split(",")
        assert formula == oracle
        assert disagreement == ""


@pytest.mark.parametrize("method", ["formula", "oracle", "both"])
def test_table_singular_parameter_is_usage_error(capsys, method):
    code, out, err = run(
        capsys,
        "table", "--family", "bernoulli", "--alpha", "1", "--a", "-2",
        "--n-max", "3", "--method", method,
    )
    assert code == 64
    assert out == ""
    assert "singular parameter" in err
    assert "at m = 2 for alpha = 1, a = -2" in err


def test_table_method_both_json_rows_agree(capsys):
    code, out, _ = run(
        capsys,
        "table", "--family", "cauchy2", "--k", "2", "--alpha", "1/2", "--a", "1",
        "--n-max", "4", "--method", "both", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["values"]
    assert [row["n"] for row in rows] == [0, 1, 2, 3, 4]
    assert all(row["agree"] is True and row["formula"] == row["oracle"] for row in rows)


def test_table_method_both_reports_a_disagreement(capsys, monkeypatch):
    # an oracle path shifted by 1 at every index: CSV's last column names both
    # values, and JSON's rows say they do not agree
    oracle = cli.oracle_sequence
    monkeypatch.setattr(
        cli, "oracle_sequence", lambda *args: [value + 1 for value in oracle(*args)]
    )
    base = ["table", "--family", "cauchy1", "--n-max", "2", "--method", "both"]
    code, out, _ = run(capsys, *base)
    assert code == 0
    assert out == (
        "0,1,2,formula=1;oracle=2\n"
        "1,1/2,3/2,formula=1/2;oracle=3/2\n"
        "2,-1/6,5/6,formula=-1/6;oracle=5/6\n"
    )
    code, out, _ = run(capsys, *base, "--format", "json")
    assert code == 0
    rows = json.loads(out)["values"]
    assert [row["agree"] for row in rows] == [False] * 3
    assert rows[1]["formula"] == {"num": "1", "den": "2"}
    assert rows[1]["oracle"] == {"num": "3", "den": "2"}


def test_table_zero_alpha_is_usage_error(capsys):
    code, out, err = run(capsys, "table", "--family", "bernoulli", "--alpha", "0")
    assert code == 64
    assert out == ""
    assert "alpha must be nonzero" in err


def test_table_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "table")
    assert code == 64
    code, _, err = run(
        capsys, "table", "--family", "cauchy1", "--stirling", "1"
    )
    assert code == 64


def test_table_stirling_triangle_csv(capsys):
    code, out, _ = run(capsys, "table", "--stirling", "2", "--max-n", "4")
    assert code == 0
    assert out == "1\n0,1\n0,1,1\n0,1,3,1\n0,1,7,6,1\n"


def test_table_stirling_triangle_json(capsys):
    code, out, _ = run(
        capsys, "table", "--stirling", "1", "--max-n", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "stirling1"
    assert payload["rows"][3] == ["0", "2", "3", "1"]


def test_table_json_round_trip_is_byte_identical(capsys):
    code, out, _ = run(
        capsys,
        "table", "--family", "cauchy1", "--k", "1", "--alpha", "1", "--a", "1",
        "--n-max", "3", "--format", "json",
    )
    assert code == 0
    reparsed = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert reparsed == out
    values = json.loads(out)["values"]
    assert values[2]["value"] == {"num": "-1", "den": "6"}


def test_table_rejects_bad_rational(capsys):
    code, _, err = run(
        capsys, "table", "--family", "cauchy1", "--alpha", "1.5", "--n-max", "2"
    )
    assert code == 64
    assert "rational" in err


# -- series -------------------------------------------------------------------


def test_series_coefficients(capsys):
    code, out, _ = run(capsys, "series", "--kernel", "log1p", "--order", "3")
    assert code == 0
    assert out == "0,0\n1,1\n2,-1/2\n3,1/3\n"


def test_series_egf(capsys):
    code, out, _ = run(
        capsys, "series", "--kernel", "one_minus_exp_neg", "--order", "3", "--egf"
    )
    assert code == 0
    assert out == "0,0\n1,1\n2,-1\n3,1\n"


def test_series_requires_order(capsys):
    code, _, err = run(capsys, "series", "--kernel", "log1p")
    assert code == 64
    assert "--order" in err


@pytest.mark.parametrize(
    "command, flags", [("series", ["--kernel", "--order"]), ("audit", ["--identity"])]
)
def test_help_shows_required_flags_as_required(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    for flag in flags:
        assert flag in usage and f"[{flag}" not in usage


def test_series_unknown_kernel(capsys):
    code, _, _ = run(capsys, "series", "--kernel", "sinh", "--order", "3")
    assert code == 64


def test_series_json(capsys):
    code, out, _ = run(
        capsys, "series", "--kernel", "exp_neg", "--order", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"][2] == {"num": "1", "den": "2"}


# -- audit --------------------------------------------------------------------


def test_audit_eq9_exit_zero(capsys):
    code, out, _ = run(capsys, "audit", "--identity", "eq9", "--n-max", "6")
    assert code == 0
    assert out.startswith("# hlpoly ")


def test_audit_eq11_exit_one_and_witness(capsys):
    code, out, _ = run(
        capsys, "audit", "--identity", "eq11", "--n-max", "4", "--format", "json",
        "--k-values", "1", "--pair", "1,1",
    )
    assert code == 1
    payload = json.loads(out)
    report = payload["reports"][0]
    witness = next(
        v for v in report["verdicts"]
        if v["point"]["n"] == 2 and v["status"] == "FAILS"
    )
    assert witness["lhs"] == {"num": "-1", "den": "6"}
    assert witness["rhs"] == {"num": "5", "den": "6"}


def test_audit_thm9_witness(capsys):
    code, out, _ = run(
        capsys, "audit", "--identity", "thm9", "--n-max", "1", "--format", "json",
        "--k-values", "1", "--pair", "1,1",
    )
    assert code == 1
    report = json.loads(out)["reports"][0]
    row = next(v for v in report["verdicts"] if v["point"]["n"] == 1)
    assert row["lhs"] == {"num": "1", "den": "2"}
    assert row["rhs"] == {"num": "1", "den": "3"}


def test_audit_exit_two_when_only_undefined(capsys):
    code, _, _ = run(
        capsys,
        "audit", "--identity", "thm8", "--k-values", "1", "--pair", "2,1",
        "--primes", "3", "--multipliers", "1",
    )
    assert code == 2


def test_audit_json_runs_are_byte_identical(capsys):
    args = ("audit", "--identity", "eq11", "--n-max", "4", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    reparsed = json.dumps(json.loads(first), indent=2, sort_keys=True) + "\n"
    assert reparsed == first


def test_report_json_is_canonical_ascii_with_explicit_verdicts(capsys):
    """README's promise: audit and congruence JSON are canonical, sorted and
    ASCII, and every verdict spells out all seven fields."""
    _, audit_out, _ = run(
        capsys,
        "audit", "--identity", "eq11", "--n-max", "2", "--pair", "1,1",
        "--k-values", "1", "--format", "json",
    )
    _, scan_out, _ = run(
        capsys,
        "congruence-scan", "--format", "json", "--multipliers", "1", "--primes", "3,5",
    )
    for out in (audit_out, scan_out):
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
        assert out.isascii()

    (report,) = json.loads(audit_out)["reports"]
    assert report["verdicts"][2] == {
        "point": {"a": "1", "alpha": "1", "k": 1, "n": 2},
        "status": "FAILS",
        "lhs": {"num": "-1", "den": "6"},
        "rhs": {"num": "5", "den": "6"},
        "reason": None,
        "hypothesis_ok": None,
        "hypothesis_note": None,
    }

    # A congruence verdict carries its residues as plain ints.
    reports = {r["identity"]: r for r in json.loads(scan_out)["reports"]}
    point = {"a": "1", "alpha": "1", "k": 1, "n": 1, "p": 3}
    (row,) = [v for v in reports["THM8_C2"]["verdicts"] if v["point"] == point]
    assert row == {
        "point": point,
        "status": "FAILS",
        "lhs": 0,
        "rhs": 1,
        "reason": None,
        "hypothesis_ok": False,
        "hypothesis_note": "alpha*m + a not invertible mod 3 at m = 2",
    }


@given(st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)))
def test_json_rational_round_trip(q):
    encoded = cli._json_rational(q)
    assert Fraction(int(encoded["num"]), int(encoded["den"])) == q


# -- the report JSON writer ---------------------------------------------------


def _reference_param(value):
    return cli.format_rational(value) if isinstance(value, Fraction) else value


def _reference_report(report, variant):
    """One report as the dict tree that canonical_json serialized before the
    fixed-schema writer replaced it."""
    return {
        "identity": report.identity,
        "variant": variant,
        "points": len(report.verdicts),
        "summary": report.summary,
        "verdicts": [
            {
                "point": {key: _reference_param(value) for key, value in v.point.items()},
                "status": v.status,
                "lhs": cli._json_rational(v.lhs) if isinstance(v.lhs, Fraction) else v.lhs,
                "rhs": cli._json_rational(v.rhs) if isinstance(v.rhs, Fraction) else v.rhs,
                "reason": v.reason,
                "hypothesis_ok": v.hypothesis_ok,
                "hypothesis_note": v.hypothesis_note,
            }
            for v in report.verdicts
        ],
    }


# Small integers, and integers of thousands of digits below CPython's
# int-to-str limit of 4300 digits.
_odd_ints = st.one_of(
    st.integers(-(10**6), 10**6),
    st.builds(
        lambda digits, sign, offset: sign * 10**digits + offset,
        st.integers(1000, 4200), st.sampled_from([-1, 1]), st.integers(-9, 9),
    ),
)
_odd_rationals = st.builds(Fraction, _odd_ints, _odd_ints.filter(lambda d: d > 0))
_odd_text = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\u2603\U0001f600'), st.characters())
)
_odd_verdicts = st.builds(
    Verdict,
    status=st.sampled_from([HOLDS, FAILS, UNDEFINED]),
    point=st.dictionaries(
        st.one_of(st.sampled_from(["k", "alpha", "a", "n", "p", "form", "l"]), _odd_text),
        st.one_of(st.none(), _odd_ints, _odd_rationals, _odd_text),
        max_size=6,
    ),
    lhs=st.one_of(st.none(), _odd_rationals, _odd_ints, _odd_text),
    rhs=st.one_of(st.none(), _odd_rationals, _odd_ints, _odd_text),
    reason=st.one_of(st.none(), _odd_text),
    hypothesis_ok=st.one_of(st.none(), st.booleans()),
    hypothesis_note=st.one_of(st.none(), _odd_text),
)
_odd_reports = st.builds(AuditReport, _odd_text, st.lists(_odd_verdicts, max_size=4))


class _Tagged(Fraction):
    """A Fraction subclass with its own str(): the renderers' exact-type fast
    paths must not take it for a Fraction where they used to str() it."""

    def __str__(self):
        return "tagged"


def _twin(value):
    """An equal value that is another object, past the ints -5..256 that
    CPython keeps one object of."""
    if isinstance(value, Fraction):
        return Fraction(value.numerator, value.denominator)
    return int(str(value))


_POINT_KEYS = ["k", "alpha", "a", "n", "p", "form"]


@st.composite
def _shared_reports(draw, one_key_set=False):
    """A report whose verdicts share value objects, as a grid point's rows
    do, so that the writers reuse a field's text. Its values come from one
    pool: ints above 256, every number beside an equal but distinct twin,
    True beside 1 and Fraction(1) under one key, a Fraction subclass beside
    the equal Fraction, and None. Unless `one_key_set`, a key may be missing
    from one point and present in the next, and keys come in any order."""
    numbers = draw(
        st.lists(st.one_of(_odd_ints, _odd_rationals, st.integers(257, 10**6)), max_size=3)
    )
    numbers += [_twin(x) for x in numbers] + [1, Fraction(1), Fraction(1, 2), _Tagged(1, 2)]
    values = st.sampled_from(numbers + [None, True, False, draw(_odd_text)])
    sides = st.one_of(st.none(), st.sampled_from(numbers))
    keys = draw(st.lists(st.sampled_from(_POINT_KEYS), unique=True, max_size=5))
    verdicts = []
    for _ in range(draw(st.integers(0, 6))):
        if one_key_set:
            point = {key: draw(values) for key in keys}
        else:
            point = draw(st.dictionaries(st.sampled_from(_POINT_KEYS), values, max_size=5))
        lhs = draw(sides)
        # rhs is lhs itself, as a HOLDS row of one type holds it, an equal
        # value (a twin, or 1 beside Fraction(1)), or any side
        equal = [x for x in numbers if x == lhs] or [lhs]
        rhs = draw(st.one_of(st.just(lhs), st.sampled_from(equal), sides))
        verdicts.append(
            Verdict(
                draw(st.sampled_from([HOLDS, FAILS, UNDEFINED])),
                point,
                lhs,
                rhs,
                draw(st.one_of(st.none(), _odd_text)),
                draw(st.one_of(st.none(), st.booleans())),
                draw(st.one_of(st.none(), _odd_text)),
            )
        )
    return AuditReport(draw(_odd_text), verdicts)


_grids = st.sampled_from(
    [GridSpec(), GridSpec(n_max=0, k_values=(-2,), pairs=((Fraction(-1, 2), Fraction(7, 3)),))]
)


# consecutive rows whose values are equal but distinct objects under one key
_LOOKALIKES = AuditReport(
    "THM1",
    [
        Verdict(HOLDS, {"k": k, "alpha": alpha}, alpha, alpha)
        for k in (True, 1, Fraction(1), 300, int("300"), False, 0)
        for alpha in (Fraction(1, 2), _Tagged(1, 2))
    ],
)


@settings(max_examples=60, deadline=None)
@example("audit", GridSpec(), [AuditReport("THM8_B", [])], None)
@example("audit", GridSpec(), [_LOOKALIKES], None)
@given(
    st.sampled_from(["audit", "congruence-scan"]),
    _grids,
    st.lists(st.one_of(_odd_reports, _shared_reports()), max_size=3),
    st.one_of(st.none(), _odd_text),
)
def test_report_writer_matches_the_canonical_dump(command, grid, reports, variant):
    pairs = [[cli.format_rational(alpha), cli.format_rational(a)] for alpha, a in grid.pairs]
    reference = {
        "command": command,
        # the grid's fields, and no attribute that is not one
        "grid": {**{field: getattr(grid, field) for field in GridSpec.FIELDS}, "pairs": pairs},
        "reports": [_reference_report(r, variant) for r in reports],
    }
    text = cli._json_reports(command, grid, reports, variant)
    assert text == json.dumps(reference, indent=2, sort_keys=True) + "\n"
    assert json.loads(text) == json.loads(json.dumps(reference))


@settings(max_examples=60, deadline=None)
@example(_LOOKALIKES)
@given(_shared_reports(one_key_set=True))
def test_report_rows_render_every_cell_as_a_fresh_cell_call(report):
    # the csv and text rows reuse a cell only for the very same object
    keys = list(report.verdicts[0].point) if report.verdicts else []
    with_hyp = any(v.hypothesis_ok is not None for v in report.verdicts)
    expected = []
    for v in report.verdicts:
        row = [cli._cell(v.point[key]) for key in keys]
        row += [v.status, cli._cell(v.lhs), cli._cell(v.rhs), cli._cell(v.reason)]
        if with_hyp:
            row += [cli._cell(v.hypothesis_ok), cli._cell(v.hypothesis_note)]
        expected.append(row)
    header, rows = cli._report_rows(report, {})
    assert header[: len(keys)] == keys
    assert list(rows) == expected


_SIDE = '{\n            "den": "%s",\n            "num": "%s"\n          }'


@pytest.mark.parametrize(
    "render, value, text",
    [
        (cli._json_param, _Tagged(2, 4), '"1/2"'),
        (cli._json_param, _Tagged(6, 3), '"2"'),
        (cli._json_param, True, "true"),
        (cli._json_param, False, "false"),
        (cli._json_param, -3, "-3"),
        (cli._json_param, 10**40, str(10**40)),
        (cli._json_param, Fraction(-7, 3), '"-7/3"'),
        (cli._json_param, "first_second", '"first_second"'),
        (cli._json_param, 'a"b', '"a\\"b"'),
        (cli._json_side, _Tagged(2, 4), _SIDE % (2, 1)),
        (cli._json_side, _Tagged(6, 3), _SIDE % (1, 2)),
        (cli._json_side, True, "true"),
        (cli._json_side, False, "false"),
        (cli._json_side, -3, "-3"),
        (cli._json_side, Fraction(-7, 3), _SIDE % (3, -7)),
        (cli._json_side, None, "null"),
        (cli._json_side, "first_second", '"first_second"'),
        (cli._cell, _Tagged(2, 4), "tagged"),
        (cli._cell, True, "yes"),
        (cli._cell, False, "no"),
        (cli._cell, -3, "-3"),
        (cli._cell, Fraction(-7, 3), "-7/3"),
        (cli._cell, "first_second", "first_second"),
        (cli._cell, None, "-"),
        (cli._json_param, None, "null"),
    ],
)
def test_renderers_treat_subclasses_bools_ints_and_strings_as_before(render, value, text):
    assert render(value) == text


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--identity", "all", "--format", "json"],
        ["congruence-scan", "--format", "csv"],
        ["congruence-scan", "--format", "text"],
    ],
)
def test_no_output_depends_on_shared_point_objects(capsys, monkeypatch, argv):
    # the same command with every verdict's point an equal fresh dict: a
    # writer cache keyed by value, by key tuple, or by the id of a dead
    # object would write other bytes
    assert main(argv) == 1
    shared = capsys.readouterr().out
    run_identity = cli.run_identity

    def fresh_points(*args):
        report = run_identity(*args)
        report.verdicts = [v._replace(point=dict(v.point)) for v in report.verdicts]
        return report

    monkeypatch.setattr(cli, "run_identity", fresh_points)
    assert main(argv) == 1
    assert capsys.readouterr().out == shared


@pytest.mark.parametrize(
    "fmt, renderer", [("csv", "_point_cells"), ("text", "_point_cells"), ("json", "_json_point")]
)
def test_every_writer_renders_each_point_object_once(capsys, monkeypatch, fmt, renderer):
    # the default scan: 3 labels x 216 points (k, alpha, a, n, p), each
    # point object shared by THM8_C1, THM8_C2 and THM8_B
    rendered = []
    render = getattr(cli, renderer)

    def counted(point):
        rendered.append(point)
        return render(point)

    monkeypatch.setattr(cli, renderer, counted)
    assert main(["congruence-scan", "--format", fmt]) == 1
    out = capsys.readouterr().out
    if fmt == "json":
        rows = sum(len(report["verdicts"]) for report in json.loads(out)["reports"])
    else:
        rows = sum(line.startswith(("thm8", "1 ", "2 ", "3 ")) for line in out.splitlines())
    assert rows == 648
    assert len(rendered) == len({id(point) for point in rendered}) == 216


def test_audit_text_runs_are_byte_identical(capsys):
    args = ("audit", "--identity", "thm8", "--multipliers", "1", "--k-values", "1")
    code1, first, _ = run(capsys, *args)
    code2, second, _ = run(capsys, *args)
    assert first == second and code1 == code2
    assert "hypothesis_ok" in first


def test_audit_rejects_nonprime(capsys):
    code, _, err = run(
        capsys, "audit", "--identity", "thm8", "--primes", "3,9"
    )
    assert code == 64
    assert "not prime" in err


def test_huge_prime_is_rejected_before_the_primality_test(capsys):
    # trial division of this Mersenne prime would not finish
    code, out, err = run(capsys, "congruence-scan", "--primes", "2305843009213693951")
    assert code == 64 and out == ""
    assert "below 2**16" in err


def test_prime_bound_is_two_to_the_sixteen():
    assert GridSpec(primes=(65521,)).primes == (65521,)
    with pytest.raises(ValueError):
        GridSpec(primes=(3, 65537))


def test_audit_rejects_unknown_identity(capsys):
    code, _, _ = run(capsys, "audit", "--identity", "thm7")
    assert code == 64


def test_audit_variant_prefactor(capsys):
    code, out, _ = run(
        capsys,
        "audit", "--identity", "eq11", "--n-max", "3", "--k-values", "1",
        "--pair", "1,1", "--variant-prefactor", "m+n,1",
        "--format", "json",
    )
    # the variant here *is* the catalogued prefactor, so verdicts match
    assert code == 1
    payload = json.loads(out)
    assert payload["reports"][0]["variant"] == "m+n,1"


def test_audit_variant_prefactor_text_title(capsys):
    code, out, _ = run(
        capsys,
        "audit", "--identity", "eq9", "--n-max", "2", "--k-values", "1",
        "--pair", "1,1", "--variant-prefactor", "m+n,1",
    )
    assert code == 0
    assert "identity eq9 (variant prefactor: m+n,1): points=3 " in out


def test_audit_variant_only_for_duality(capsys):
    code, _, err = run(
        capsys,
        "audit", "--identity", "thm9", "--variant-prefactor", "0,1",
    )
    assert code == 64
    assert "eq9..eq12" in err


def test_audit_all_identities_present(capsys):
    code, out, _ = run(
        capsys,
        "audit", "--identity", "all", "--n-max", "2", "--k-values", "1",
        "--pair", "1,1", "--primes", "3", "--multipliers", "1",
        "--stirling-n-max", "3", "--format", "json",
    )
    assert code == 1
    names = [r["identity"] for r in json.loads(out)["reports"]]
    assert names == [
        "THM1", "THM2", "THM3", "THM4", "THM5", "THM6",
        "EQ9", "EQ10", "EQ11", "EQ12",
        "THM8_C1", "THM8_C2", "THM8_B",
        "THM9", "THM10", "THM11", "STIRLING_ORTHO",
    ]


@pytest.mark.parametrize("command", ["audit", "congruence-scan"])
def test_pair_help_shows_how_to_write_a_negative_alpha(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "--pair=-1/2,2" in " ".join(capsys.readouterr().out.split())


def test_audit_thm8_without_positive_k_is_usage_error(capsys):
    code, out, err = run(capsys, "audit", "--identity", "thm8", "--k-values=-1,0")
    assert code == 64
    assert out == ""
    assert "k >= 1" in err


# the README's token table: each --identity token and the reports it runs
TOKEN_LABELS = {
    "thm1": ["THM1"],
    "thm2": ["THM2"],
    "thm3": ["THM3"],
    "thm4": ["THM4"],
    "thm5": ["THM5"],
    "thm6": ["THM6"],
    "eq9": ["EQ9"],
    "eq10": ["EQ10"],
    "eq11": ["EQ11"],
    "eq12": ["EQ12"],
    "thm8": ["THM8_C1", "THM8_C2", "THM8_B"],
    "thm9": ["THM9"],
    "thm10": ["THM10"],
    "thm11": ["THM11"],
    "stirling-ortho": ["STIRLING_ORTHO"],
}


@pytest.mark.parametrize("token, labels", TOKEN_LABELS.items())
def test_identity_token_runs_its_catalogue_labels_in_order(capsys, token, labels):
    assert set(TOKEN_LABELS) == {t for t, _, _ in CATALOGUE.values()}
    code, out, _ = run(
        capsys,
        "audit", "--identity", token, "--n-max", "1", "--k-values", "1",
        "--pair", "1,1", "--primes", "3", "--multipliers", "1",
        "--stirling-n-max", "1", "--format", "json",
    )
    assert code in (0, 1)
    names = [r["identity"] for r in json.loads(out)["reports"]]
    assert names == labels
    assert names == [label for label, (t, _, _) in CATALOGUE.items() if t == token]


def test_a_cauchy2_label_alone_gives_the_report_it_gives_in_the_full_audit(capsys):
    # THM3, THM6, EQ10 and EQ12 read cauchy2's sums: run by their own token
    # they compute its halves, inside `--identity all` they read cauchy1's
    _, full, _ = run(capsys, "audit", "--identity", "all", "--format", "json")
    reports = {report["identity"]: report for report in json.loads(full)["reports"]}
    for token in ("thm3", "thm6", "eq10", "eq12"):
        _, alone, _ = run(capsys, "audit", "--identity", token, "--format", "json")
        (report,) = json.loads(alone)["reports"]
        assert report == reports[token.upper()]


# -- congruence-scan ----------------------------------------------------------


def test_congruence_scan_csv(capsys):
    code, out, _ = run(
        capsys,
        "congruence-scan", "--family", "cauchy1", "--k-values", "1",
        "--pair", "1,1", "--primes", "3", "--multipliers", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("identity,k,alpha,a,n,p,status")
    assert lines[1].startswith("thm8_c1,1,1,1,1,3,HOLDS,1,1,-,no,")


def test_congruence_scan_requires_positive_k(capsys):
    code, out, err = run(capsys, "congruence-scan", "--k-values", "0,1")
    assert code == 64 and out == ""
    assert "congruence scans require k >= 1" in err


def test_audit_thm8_needs_only_one_positive_k(capsys):
    # the scan's rule is stricter: audit runs k = 0 beside k = 1
    code, out, _ = run(capsys, "audit", "--identity", "thm8", "--k-values", "0,1")
    assert code == 1
    assert "identity thm8_c1: " in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_congruence_scan_prints_the_thm8_audit(capsys, fmt):
    scan = run(capsys, "congruence-scan", "--format", fmt)
    audit = run(capsys, "audit", "--identity", "thm8", "--format", fmt)
    assert scan[0] == audit[0] == 1
    if fmt == "text":
        assert scan[1] == audit[1]
    else:
        assert json.loads(scan[1])["reports"] == json.loads(audit[1])["reports"]
        assert json.loads(scan[1])["command"] == "congruence-scan"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_congruence_scan_family_runs_only_its_label(capsys, fmt):
    code, out, _ = run(capsys, "congruence-scan", "--family", "cauchy2", "--format", fmt)
    assert code == 1
    if fmt == "json":
        names = [r["identity"] for r in json.loads(out)["reports"]]
    elif fmt == "csv":
        names = sorted({line.split(",")[0].upper() for line in out.splitlines()[1:]})
    else:
        titles = [line.split(":")[0] for line in out.splitlines() if line.startswith("identity ")]
        names = [title.removeprefix("identity ").upper() for title in titles]
    assert names == ["THM8_C2"]


def test_the_cauchy2_scan_gives_the_thm8_c2_rows_of_the_full_scan(capsys):
    # alone, cauchy2 computes the halves of its sums itself; in the full scan
    # it reads those cauchy1 left
    argv = ["--format", "csv", "--multipliers", "1,2,3,4", "--primes", "3,5,7,11"]
    code, alone, _ = run(capsys, "congruence-scan", "--family", "cauchy2", *argv)
    assert code == 1
    _, full, _ = run(capsys, "congruence-scan", *argv)
    header, *rows = full.splitlines()
    expected = [header, *(row for row in rows if row.startswith("thm8_c2,"))]
    assert alone.splitlines() == expected and len(expected) > 1


@pytest.mark.parametrize("family", ["cauchy1", "cauchy2", "bernoulli"])
def test_a_scan_of_one_family_gives_its_thm8_report_in_the_full_audit(capsys, family):
    # the scan of one family alone fills each point's values in its own
    # pass; inside `--identity all`, THM1-THM3 and the THM8 labels before it
    # have kept some of them
    argv = ["--format", "json", "--k-values", "1,2,3", "--primes", "3,5,7", "--multipliers", "1,2,3"]
    _, scan, _ = run(capsys, "congruence-scan", "--family", family, *argv)
    (report,) = json.loads(scan)["reports"]
    _, full, _ = run(capsys, "audit", "--identity", "all", *argv)
    reports = {r["identity"]: r for r in json.loads(full)["reports"]}
    assert report == reports[report["identity"]] and report["verdicts"]


def test_a_scan_with_no_evaluable_row_computes_nothing_and_exits_two(capsys, monkeypatch):
    # alpha*m + a vanishes at m = 0: every row is SINGULAR_PARAMETER, and no
    # value, s_0 included, is computed, which would raise
    def refused(*args):
        raise AssertionError("a value was computed")

    monkeypatch.setattr(sequences, "_signed_sums", refused)
    argv = ["--format", "csv", "--pair", "1,0", "--primes", "3", "--multipliers", "1"]
    code, out, err = run(capsys, "congruence-scan", *argv, "--k-values", "1")
    assert code == 2 and err == ""
    assert out.count("SINGULAR_PARAMETER") == 3


def test_congruence_scan_singular_parameter_exits_two(capsys):
    argv = ["--pair=1,-2", "--primes", "3", "--multipliers", "1", "--k-values", "1"]
    code, out, _ = run(capsys, "congruence-scan", *argv)
    assert code == 2
    assert out.count("SINGULAR_PARAMETER") == 3


def test_congruence_scan_all_families(capsys):
    code, out, _ = run(
        capsys,
        "congruence-scan", "--k-values", "1", "--pair", "1,1", "--primes", "3",
        "--multipliers", "1", "--format", "json",
    )
    assert code == 1  # bernoulli fails at this point
    names = [r["identity"] for r in json.loads(out)["reports"]]
    assert names == ["THM8_C1", "THM8_C2", "THM8_B"]


def test_congruence_scan_hypothesis_on_every_row(capsys):
    code, out, _ = run(
        capsys,
        "congruence-scan", "--k-values", "1,2", "--primes", "3,5",
        "--multipliers", "1,2", "--format", "json",
    )
    payload = json.loads(out)
    for report in payload["reports"]:
        for verdict in report["verdicts"]:
            assert verdict["hypothesis_ok"] in (True, False)


# -- argument files, usage, misc ----------------------------------------------
#
# `@FILE` reads flags from FILE in place. The tests named for config files
# predate argument files and now run them.


def _argument_file(tmp_path, *lines) -> str:
    path = tmp_path / "run.args"
    path.write_text("".join(line + "\n" for line in lines))
    return f"@{path}"


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    at = _argument_file(tmp_path, "--family cauchy1", "--k 1 --alpha 1", "--a=1", "--n-max", "3")
    code, out, _ = run(capsys, "table", at)
    assert code == 0
    assert out == "0,1\n1,1/2\n2,-1/6\n3,1/4\n"

    # a later single-valued flag wins over the file's
    code, out, _ = run(capsys, "table", at, "--n-max", "1")
    assert code == 0
    assert out == "0,1\n1,1/2\n"


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    code, out, err = run(capsys, "table", _argument_file(tmp_path, "--familly cauchy1"))
    assert (code, out) == (64, "")
    assert err == "error: unrecognized arguments: --familly cauchy1\n"


# Flags read from an argument file go through the same checks as flags on
# the command line; a usage error has no stdout. `config` holds the file's
# lines, read right after the command, and `out_part` is a part of stdout on
# success.
ARGUMENT_FILE_CASES = [
    (["table"], ["--family bogus"], 64, None),
    (["table"], ["--family cauchy1", "--method xyz"], 64, None),
    (["table"], ["--family cauchy1 --format xml"], 64, None),
    (["table"], ["--stirling 3"], 64, None),
    (["table"], ["--stirling 1", "--max-n 3"], 0, "1\n0,1\n0,1,1\n0,2,3,1\n"),
    # a file holds flag text: a store_true flag takes no value
    (["series", "--kernel", "log1p", "--order", "2"], ["--egf no"], 64, None),
    # a required flag may come from the file
    (["series", "--order", "3"], ["--kernel log1p"], 0, "0,0\n1,1\n2,-1/2\n3,1/3\n"),
    (["congruence-scan"], ["--family nope"], 64, None),
    (["table"], ["--n-max null", "--family cauchy1"], 64, None),
    (
        ["audit", "--n-max", "0", "--k-values", "1", "--pair", "1,1"],
        ["--identity thm2"],
        0,
        "identity thm2: points=1 holds=1 ",
    ),
    # a later single-valued flag wins over the file's
    (
        ["audit", "--identity", "thm1", "--n-max", "0", "--k-values", "1", "--pair", "1,2"],
        ["--n-max 5", "--k-values 1,2"],
        0,
        "identity thm1: points=1 holds=1 ",
    ),
    (
        ["audit", "--identity", "thm1", "--n-max", "0", "--k-values", "1"],
        ["--pair 1,1", "--pair 2,1"],
        0,
        "identity thm1: points=2 holds=2 ",
    ),
    (
        ["audit", "--identity", "thm2", "--n-max", "0", "--pair", "1,1"],
        ["--k-values 1,2,3"],
        0,
        "identity thm2: points=3 holds=3 ",
    ),
    (["series", "--kernel", "log1p", "--order", "3"], ["--egf"], 0, "0,0\n1,1\n2,-1\n3,2\n"),
    # an empty file adds nothing
    (["congruence-scan", "--multipliers", "0"], [], 64, None),
    (["series", "--kernel", "log1p"], ["--order 2"], 0, "0,0\n1,1\n2,-1/2\n"),
    # a file holds flag text, not JSON
    (["table"], ['[{"family": "cauchy1"}]'], 64, None),
    # the command's handler is a parser default, not a flag
    (["series", "--kernel", "log1p", "--order", "1"], ["--handler x"], 64, None),
    # the corrected EQ11 prefactor
    (
        ["audit", "--identity", "eq11", "--n-max", "3", "--k-values", "1", "--pair", "1,1"],
        ["--variant-prefactor m+n,-1"],
        0,
        "identity eq11 (variant prefactor: m+n,-1): points=4 holds=4 ",
    ),
    # a repeated pair would repeat its rows; pairs compare as rationals, and
    # the file's pairs and the command line's are one list
    (["audit", "--identity", "eq9", "--pair", "1,1"], ["--pair 2/2,2/2"], 64, None),
    (["congruence-scan"], ["--pair 1,1", "--pair 2/2,2/2"], 64, None),
    # --pair adds to the file's pairs
    (
        ["audit", "--identity", "thm1", "--n-max", "0", "--k-values", "1", "--pair", "1,2"],
        ["--pair 1,1", "--pair 2,1"],
        0,
        "identity thm1: points=3 holds=3 ",
    ),
    # the command itself may come from the file
    ([], ["series", "--kernel log1p", "--order 2"], 0, "0,0\n1,1\n2,-1/2\n"),
    # blank lines are skipped
    (["table"], ["", "--family cauchy1", "   ", "--n-max 1"], 0, "0,1\n1,1/2\n"),
]


@pytest.mark.parametrize("argv, config, code, out_part", ARGUMENT_FILE_CASES)
def test_config_values_are_checked_like_flags(tmp_path, capsys, argv, config, code, out_part):
    at = _argument_file(tmp_path, *config)
    got, out, err = run(capsys, *argv[:1], at, *argv[1:])
    assert got == code, err
    if out_part is None:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert out_part in out


def test_config_file_with_an_oversized_integer_is_usage_error(tmp_path, capsys):
    at = _argument_file(tmp_path, "--stirling 1", "--max-n " + "7" * 5000)
    code, out, err = run(capsys, "table", at)
    assert (code, out) == (64, "")
    assert err.startswith("error: argument --max-n: ") and err.count("\n") == 1


def test_config_file_missing(capsys):
    code, out, err = run(capsys, "table", "@/nonexistent/run.args")
    assert (code, out) == (64, "")
    assert err == "error: [Errno 2] No such file or directory: '/nonexistent/run.args'\n"


# A file that names itself would be read without end, and bytes that are not
# text raise UnicodeDecodeError where argparse catches only OSError: each is
# one usage error line.
@pytest.mark.parametrize(
    "content, message",
    [
        (None, "error: [Errno 21] Is a directory: "),
        ("@{self}\n", "error: an argument file may not name another file: '@"),
        ("--n-max 2\n@{other}\n", "error: an argument file may not name another file: '@"),
        (b"\xff\n", "error: "),
    ],
    ids=["directory", "self", "other", "bytes"],
)
def test_an_unreadable_argument_file_is_one_usage_error_line(tmp_path, capsys, content, message):
    path, other = tmp_path / "run.args", tmp_path / "other.args"
    other.write_text("--n-max 1\n")
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content.format(self=path, other=other))
    code, out, err = run(capsys, "audit", "--identity", "thm1", f"@{path}")
    assert (code, out) == (64, "")
    assert err.startswith(message) and err.count("\n") == 1


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 64


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--familly", "cauchy1")
    assert code == 64


# Values past CPython's int-to-str limit (4300 digits by default) make the
# renderer raise. That is a bug, not a verdict, so it must not exit 1 (FAILS),
# and the rows rendered before it must not reach stdout.
INTERNAL_ERROR_ARGV = [
    pytest.param(
        ["table", "--family", "cauchy1", "--k", "5000", "--n-max", "3"],
        id="table-k5000",
    ),
    pytest.param(
        [
            "audit", "--identity", "eq9", "--k-values", "6000", "--pair", "1,1",
            "--n-max", "3", "--format", "json",
        ],
        id="audit-eq9-k6000",
    ),
]


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() == 0,
    reason="this interpreter has no int-to-str digit limit",
)
@pytest.mark.parametrize("argv", INTERNAL_ERROR_ARGV)
def test_internal_error_exits_70_on_one_stderr_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (70, "")
    assert err.startswith("error: internal error: ValueError: ")
    assert err.count("\n") == 1


def _modules_after(statement: str) -> set[str]:
    """The names in sys.modules of a fresh interpreter that ran `statement`."""
    source = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\nprint(*sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (child.returncode, child.stderr) == (0, "")
    return set(child.stdout.split())


@pytest.mark.parametrize("module", ["hlpoly.cli", "hlpoly"])
def test_importing_the_package_loads_neither_dataclasses_nor_inspect(module):
    # every command pays for its imports before it reads its argv, and
    # dataclasses brings inspect, ast and dis; the bare interpreter's own
    # modules, which a site hook may extend, are not the package's
    loaded = _modules_after(f"import {module}") - _modules_after("pass")
    assert module in loaded
    assert not loaded & {"dataclasses", "inspect"}


# A reader that stops early, as `| head -1` does, ends the output: the run
# keeps the exit code of its verdicts and writes nothing to stderr. This CSV
# is about 280 KB, well past a 64 KiB pipe buffer, and streams row by row,
# so the child meets the closed pipe.
@pytest.mark.parametrize("flags", [[], ["-X", "dev", "-W", "error"]], ids=["plain", "dev"])
def test_closed_pipe_ends_the_output(flags):
    source = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [
            sys.executable, *flags, "-m", "hlpoly", "congruence-scan", "--format", "csv",
            "--multipliers", "1,2,3,4,5,6", "--primes", "3,5,7,11,13",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert child.stdout.readline().startswith(b"identity,")
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=60), err) == (1, b"")


def test_a_broken_pipe_on_a_whole_output_keeps_the_exit_code(capsys, monkeypatch, tmp_path):
    """The JSON is one write; a pipe closed under it ends the output too, and
    stdout's descriptor is pointed at the null device."""
    with open(tmp_path / "stdout", "w") as target:

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return target.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["audit", "--identity", "eq11", "--n-max", "2", "--format", "json"])
        target.write("after")
    assert (code, capsys.readouterr().err) == (1, "")
    assert (tmp_path / "stdout").read_text() == ""


def test_a_3000_digit_table_still_exits_zero(capsys):
    code, out, err = run(
        capsys, "table", "--family", "cauchy1", "--k", "3000", "--n-max", "3"
    )
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 4


def test_any_unexpected_exception_exits_70(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(cli, "_cmd_series", broken)
    code, out, err = run(capsys, "series", "--kernel", "log1p", "--order", "2")
    assert (code, out) == (70, "")
    assert err.startswith("error: internal error: RuntimeError: first line (in broken, ")
    assert err.count("\n") == 1


# -- usage errors -------------------------------------------------------------

TABLE = ["table", "--family", "cauchy1"]
EQ9 = ["audit", "--identity", "eq9", "--n-max", "1", "--pair", "1,1", "--k-values", "1"]

# (command argv, flag, bad value): every flag type, every GridSpec rule, the
# row bound and the prefactor tokens, each given once as a flag and once as
# a line of an argument file.
USAGE_ERRORS = [
    (TABLE, "k", "x"),
    (TABLE, "n-max", "-1"),
    (["series", "--kernel", "log1p"], "order", "-1"),
    (TABLE, "a", "1.5"),
    (TABLE, "alpha", "0"),
    (["audit", "--identity", "thm1"], "k-values", ","),
    (["congruence-scan"], "multipliers", "1,x"),
    (["audit", "--identity", "thm1"], "pair", "1"),
    (["audit", "--identity", "thm1"], "pair", "0,1"),
    (["audit", "--identity", "thm1"], "n-max", "-1"),
    (["audit", "--identity", "stirling-ortho"], "stirling-n-max", "-1"),
    (["audit", "--identity", "thm8"], "primes", "3,9"),
    (["congruence-scan"], "primes", "65537"),
    (["congruence-scan"], "primes", "2305843009213693951"),
    (["congruence-scan"], "multipliers", "0"),
    (["table", "--stirling", "1"], "max-n", "301"),
    (TABLE, "n-max", "301"),
    # 1599! is past the int-to-str limit, and order 20000 takes minutes: both
    # are rejected before any work
    (["series", "--kernel", "geom_1_over_1_plus_t", "--egf"], "order", "1600"),
    (["series", "--kernel", "log1p"], "order", "20000"),
    # a repeated grid value would repeat its rows
    (["audit", "--identity", "thm1"], "k-values", "1,2,1"),
    (["congruence-scan"], "primes", "3,3"),
    (["congruence-scan"], "multipliers", "1,2,2"),
    # only the exact tokens of the prefactor family
    (EQ9, "variant-prefactor", "x,1"),
    (EQ9, "variant-prefactor", "m,2"),
    (EQ9, "variant-prefactor", "m+n"),
    (EQ9, "variant-prefactor", "n,-1,0"),
    (EQ9, "variant-prefactor", "2**(10**7)"),
    # expressions of the earlier syntax, deep ones included, are not parsed
    (EQ9, "variant-prefactor", "True*fact(m)"),
    (EQ9, "variant-prefactor", "False"),
    (EQ9, "variant-prefactor", "fact(-1)"),
    (EQ9, "variant-prefactor", "1/(m-m)"),
    (EQ9, "variant-prefactor", "2**(1/2)"),
    (EQ9, "variant-prefactor", "0**(-1)"),
    (EQ9, "variant-prefactor", "m +"),
    (EQ9, "variant-prefactor", "+".join(["m"] * 1200)),
    (EQ9, "variant-prefactor", "-" * 1200 + "n"),
    (EQ9, "variant-prefactor", "+".join(["m"] * 3500)),
    (EQ9, "variant-prefactor", "-" * 6000 + "n"),
]


def _usage_error_id(argv, flag, value):
    shown = value if len(value) <= 40 else f"{value[:6]}...{len(value)} chars"
    return f"{argv[0]} --{flag}={shown}"


# The "config" ids, kept from the earlier JSON config files, read the value
# from an argument file.
@pytest.mark.parametrize("via_file", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize(
    "argv, flag, value", USAGE_ERRORS, ids=[_usage_error_id(*row) for row in USAGE_ERRORS]
)
def test_bad_input_is_one_usage_error_line(tmp_path, capsys, argv, flag, value, via_file):
    if via_file:
        argv = [argv[0], _argument_file(tmp_path, f"--{flag}={value}"), *argv[1:]]
    else:
        argv = [*argv, f"--{flag}={value}"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_the_triangle_bound_is_300_rows(capsys, monkeypatch):
    # The 300-row triangle itself is not built here: a stub stands in.
    built = []
    monkeypatch.setattr(cli, "build_table", lambda kind, max_n: built.append(max_n) or [[1]])
    code, out, err = run(capsys, "table", "--stirling", "1", "--max-n", "300")
    assert (code, out, err, built) == (0, "1\n", "", [300])
    code, out, err = run(capsys, "table", "--stirling", "2", "--max-n", "301")
    assert (code, out, built) == (64, "", [300])
    assert err == "error: argument --max-n: must be <= 300, got 301\n"


def test_the_series_order_bound_is_300(capsys):
    code, out, err = run(
        capsys, "series", "--kernel", "geom_1_over_1_plus_t", "--order", "300", "--egf"
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"300,{math.factorial(300)}"
    code, out, err = run(capsys, "series", "--kernel", "log1p", "--order", "301")
    assert (code, out) == (64, "")
    assert err == "error: argument --order: must be <= 300, got 301\n"
