from fractions import Fraction

import pytest

from hlpoly.exact import factorial
from hlpoly.series import kernel
from hlpoly.stirling import (
    FIRST_UNSIGNED,
    SECOND,
    build_table,
    stirling1_unsigned,
    stirling2,
)

from bruteforce import (
    bell_numbers,
    compose_powers,
    stirling1_unsigned_row,
    stirling2_explicit,
)


def test_first_kind_examples():
    assert stirling1_unsigned(3, 1) == 2
    assert stirling1_unsigned(4, 2) == 11
    assert stirling1_unsigned(7, 7) == 1


def test_second_kind_examples():
    assert stirling2(4, 2) == 7
    assert stirling2(3, 2) == 3
    assert stirling2(5, 0) == 0


def test_out_of_range_gives_zero():
    assert stirling1_unsigned(3, 5) == 0
    assert stirling2(2, 3) == 0
    assert stirling1_unsigned(-1, 0) == 0
    assert stirling2(4, -2) == 0


def test_base_cases_and_diagonal():
    for n in range(10):
        assert stirling1_unsigned(n, n) == 1
        assert stirling2(n, n) == 1
        if n >= 1:
            assert stirling1_unsigned(n, 0) == 0
            assert stirling2(n, 0) == 0


def test_matches_independent_constructions():
    for n in range(12):
        row = stirling1_unsigned_row(n)
        for m in range(n + 1):
            assert stirling1_unsigned(n, m) == row[m]
            assert stirling2(n, m) == stirling2_explicit(n, m)


def test_row_sums_are_bell_numbers():
    bells = bell_numbers(12)
    for n in range(13):
        assert sum(stirling2(n, m) for m in range(n + 1)) == bells[n]


def test_first_kind_row_sums_are_factorials():
    for n in range(12):
        assert sum(stirling1_unsigned(n, m) for m in range(n + 1)) == factorial(n)


def test_egf_consistency_first_kind():
    # coefficient of t^n/n! in (ln(1+t))^k / k! is (-1)^(n-k) [n k]
    log_series = kernel("log1p", 12)
    powers = compose_powers([log_series.coefficient(i) for i in range(13)], 6)
    for k in range(7):
        for n in range(13):
            egf = powers[k][n] * factorial(n) / factorial(k)
            assert egf == (-1) ** (n - k) * stirling1_unsigned(n, k)


def test_egf_consistency_second_kind():
    # coefficient of t^n/n! in (e^t - 1)^k / k! is {n k}
    em1 = [Fraction(0)] + [Fraction(1, factorial(i)) for i in range(1, 13)]
    powers = compose_powers(em1, 6)
    for k in range(7):
        for n in range(13):
            assert powers[k][n] * factorial(n) / factorial(k) == stirling2(n, k)


def test_signed_orthogonality():
    for n in range(21):
        for l in range(n + 1):
            total = sum(
                stirling1_unsigned(n, m) * stirling2(m, l) * (-1) ** m
                for m in range(l, n + 1)
            )
            assert total == ((-1) ** n if n == l else 0)


def test_table_value_semantics():
    rows = build_table(SECOND, 5)
    assert len(rows) == 6
    assert rows[4][2] == 7
    with pytest.raises(ValueError):
        build_table("third", 4)
    with pytest.raises(ValueError):
        build_table(SECOND, -1)


def test_tables_grow_on_demand():
    # far beyond any earlier query in this process
    assert stirling1_unsigned(40, 1) == factorial(39)
    assert stirling2(40, 39) == 39 * 40 // 2


def test_triangle_rows_shape():
    rows = build_table(FIRST_UNSIGNED, 4)
    assert [len(r) for r in rows] == [1, 2, 3, 4, 5]
    assert rows[4] == [0, 6, 11, 6, 1]


@pytest.mark.parametrize(
    "kind, lookup", [(FIRST_UNSIGNED, stirling1_unsigned), (SECOND, stirling2)]
)
def test_build_table_rows_are_a_fresh_copy(kind, lookup):
    lookup(8, 0)  # the lookup rows reach at least row 8
    for top in (8, 120):  # within the lookup rows, then past them
        rows = build_table(kind, top)
        expected = [list(row) for row in rows]
        for row in rows:
            row[:] = [-1] * len(row)
        assert all(
            lookup(n, m) == expected[n][m] for n in range(top + 1) for m in range(n + 1)
        )
