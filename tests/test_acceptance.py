"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import contextlib
import json
import random
from fractions import Fraction

from hlpoly.audit import (
    DEFAULT_GRID,
    FAILS,
    GridSpec,
    HOLDS,
    NONREDUCIBLE_DENOMINATOR,
    UNDEFINED,
    report_to_dict,
    run_identity,
)
from hlpoly.cli import main
from hlpoly.exact import factorial
from hlpoly.sequences import Family, Params, oracle_sequence
from hlpoly.series import KERNEL_NAMES, PowerSeries, egf_coeff, kernel

from bruteforce import family_egf, taylor, to_egf


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {title}: PASS")


GRID_PARAMS = [
    Params(k, alpha, a)
    for alpha, a in DEFAULT_GRID.pairs
    for k in DEFAULT_GRID.k_values
]


def test_criterion_1_explicit_equals_oracle():
    with criterion(1, "explicit formulas match the generating-function oracle"):
        total = 0
        for identity in ("THM1", "THM2", "THM3"):
            report = run_identity(identity, DEFAULT_GRID)
            assert len(report.verdicts) == 13 * len(GRID_PARAMS)
            assert all(v.status == HOLDS for v in report.verdicts)
            total += len(report.verdicts)
        assert total == 3 * 13 * 36


def test_criterion_2_classical_specialization():
    with criterion(2, "classical values at alpha = a = k = 1"):
        frozen_bernoulli = [1, Fraction(1, 2), Fraction(1, 6), 0]
        frozen_cauchy1 = [1, Fraction(1, 2), Fraction(-1, 6), Fraction(1, 4)]
        # the frozen fixtures themselves come from the independent expander
        assert family_egf("bernoulli", 1, 1, 1, 3) == frozen_bernoulli
        assert family_egf("cauchy1", 1, 1, 1, 3) == frozen_cauchy1
        params = Params(1, 1, 1)
        assert oracle_sequence(Family.BERNOULLI, 3, params) == frozen_bernoulli
        assert oracle_sequence(Family.CAUCHY1, 3, params) == frozen_cauchy1


def test_criterion_3_orthogonality():
    with criterion(3, "Stirling-transform collapses hold on the full grid"):
        for identity in ("THM4", "THM5", "THM6"):
            report = run_identity(identity, DEFAULT_GRID)
            assert len(report.verdicts) == 13 * len(GRID_PARAMS)
            assert all(v.status == HOLDS for v in report.verdicts)


def test_criterion_4_stirling_orthogonality():
    with criterion(4, "signed Stirling orthogonality for 0 <= l <= n <= 20"):
        report = run_identity("STIRLING_ORTHO", DEFAULT_GRID)
        assert len(report.verdicts) == 2 * 21 * 22 // 2
        assert all(v.status == HOLDS for v in report.verdicts)


def test_criterion_5_duality_eq9():
    with criterion(5, "first duality identity holds on the full grid"):
        report = run_identity("EQ9", DEFAULT_GRID)
        assert len(report.verdicts) == 13 * len(GRID_PARAMS)
        assert all(v.status == HOLDS for v in report.verdicts)


def test_criterion_6_audit_determinism_and_witnesses():
    with criterion(6, "deterministic audits with exact witnesses"):
        for identity in ("EQ10", "EQ11", "EQ12", "THM9", "THM10", "THM11"):
            first = run_identity(identity, DEFAULT_GRID)
            second = run_identity(identity, DEFAULT_GRID)
            first_bytes = json.dumps(report_to_dict(first), sort_keys=True)
            second_bytes = json.dumps(report_to_dict(second), sort_keys=True)
            assert first_bytes == second_bytes
            for verdict in first.verdicts:
                if verdict.status == FAILS:
                    assert verdict.lhs is not None and verdict.rhs is not None
                    assert verdict.lhs != verdict.rhs

        def witness(report, n, k=1, alpha=Fraction(1), a=Fraction(1)):
            return next(
                v
                for v in report.verdicts
                if v.point == {"k": k, "alpha": alpha, "a": a, "n": n}
            )

        eq11 = witness(run_identity("EQ11", DEFAULT_GRID), n=2)
        assert eq11.status == FAILS
        assert (eq11.lhs, eq11.rhs) == (Fraction(-1, 6), Fraction(5, 6))

        thm9 = witness(run_identity("THM9", DEFAULT_GRID), n=1)
        assert thm9.status == FAILS
        assert (thm9.lhs, thm9.rhs) == (Fraction(1, 2), Fraction(1, 3))


def test_criterion_7_congruence_fixtures():
    with criterion(7, "congruence fixtures and hypothesis flags"):
        def congruence(identity, alpha):
            # s_p = s_0 (mod 3) at k = 1, a = 1: a one-point grid
            grid = GridSpec(
                k_values=(1,), pairs=((Fraction(alpha), Fraction(1)),),
                primes=(3,), multipliers=(1,),
            )
            [verdict] = run_identity(identity, grid).verdicts
            return verdict

        holds = congruence("THM8_C1", 1)
        assert holds.status == HOLDS and (holds.lhs, holds.rhs) == (1, 1)
        fails = congruence("THM8_B", 1)
        assert fails.status == FAILS and (fails.lhs, fails.rhs) == (0, 1)
        undefined = congruence("THM8_C1", 2)
        assert undefined.status == UNDEFINED
        assert undefined.reason == NONREDUCIBLE_DENOMINATOR
        for identity in ("THM8_C1", "THM8_C2", "THM8_B"):
            report = run_identity(identity, DEFAULT_GRID)
            assert report.verdicts, "congruence grid must not be empty"
            for verdict in report.verdicts:
                assert verdict.hypothesis_ok is not None


def test_criterion_8_series_engine():
    with criterion(8, "series kernels, EGF round-trip, truncation consistency"):
        for name in KERNEL_NAMES:
            f = kernel(name, 16)
            assert [f.coefficient(n) for n in range(17)] == taylor(name, 16)
        values = [Fraction((-1) ** n * (n + 3), 2 * n + 1) for n in range(17)]
        f = PowerSeries(*to_egf([values[n] / factorial(n) for n in range(17)]))
        assert [egf_coeff(f, n) for n in range(17)] == values

        def head(f, m):
            return PowerSeries(f.nums[: m + 1], f.den)

        rng = random.Random(20260810)
        for _ in range(1000):
            order = rng.randint(1, 8)
            f = PowerSeries(*to_egf(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(order + 1)]
            ))
            g = PowerSeries(*to_egf(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(order + 1)]
            ))
            m = rng.randint(0, order)
            assert head(f * g, m) == head(f, m) * head(g, m)


def test_criterion_9_cli_contract(capsys, tmp_path):
    with criterion(9, "CLI exit codes, byte-stable JSON, table fixtures"):
        def run(*argv):
            code = main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        # exit 0: an identity that holds
        code, _, _ = run("audit", "--identity", "eq9", "--n-max", "6")
        assert code == 0
        # exit 1: an identity with failures
        code, _, _ = run(
            "audit", "--identity", "eq11", "--n-max", "4",
            "--k-values", "1", "--pair", "1,1",
        )
        assert code == 1
        # exit 2: only HOLDS/UNDEFINED
        code, _, _ = run(
            "audit", "--identity", "thm8", "--k-values", "1",
            "--pair", "2,1", "--primes", "3", "--multipliers", "1",
        )
        assert code == 2
        # exit 64: parse error before any computation
        code, _, err = run("table", "--family", "cauchy1", "--alpha", "x")
        assert code == 64 and err != ""

        # JSON round-trip byte-identity
        code, out, _ = run(
            "audit", "--identity", "thm10", "--n-max", "3", "--format", "json"
        )
        assert code == 1
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out

        # table fixtures of criterion 2 through the CLI path
        code, out, _ = run(
            "table", "--family", "bernoulli", "--k", "1", "--alpha", "1",
            "--a", "1", "--n-max", "3", "--format", "csv",
        )
        assert code == 0 and out == "0,1\n1,1/2\n2,1/6\n3,0\n"
        code, out, _ = run(
            "table", "--family", "cauchy1", "--k", "1", "--alpha", "1",
            "--a", "1", "--n-max", "3", "--format", "csv", "--method", "oracle",
        )
        assert code == 0 and out == "0,1\n1,1/2\n2,-1/6\n3,1/4\n"
