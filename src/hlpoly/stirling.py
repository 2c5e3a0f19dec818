"""Stirling number triangles: unsigned first kind and second kind.

Both triangles share entry(0,0) = 1, entry(n,0) = 0 for n >= 1, and
entry(n,n) = 1, and grow row by row:

    first kind:  [n+1, m] = [n, m-1] + n * [n, m]
    second kind: {n+1, m} = {n, m-1} + m * {n, m}

First-kind values are stored unsigned; callers apply (-1)^(n-m)-style signs
at the point of use, which keeps every stored entry nonnegative and the sign
bookkeeping visible in each formula.

Each triangle is one module-level list of rows. A lookup past the last row
appends the missing rows in place; rows are only ever appended, so a row
never changes once built (growth takes no lock: the package starts no
threads). `build_table` runs the same recurrence on a fresh list, so no
caller ever holds the shared rows.
"""

from __future__ import annotations

__all__ = [
    "FIRST_UNSIGNED",
    "SECOND",
    "build_table",
    "stirling1_unsigned",
    "stirling2",
]

FIRST_UNSIGNED = "first_unsigned"
SECOND = "second"


def _grow(rows: list[list[int]], kind: str, max_n: int) -> list[list[int]]:
    """Append rows of `kind` to `rows` until it holds rows 0..max_n."""
    first = kind == FIRST_UNSIGNED
    while len(rows) <= max_n:
        prev = rows[-1]
        n = len(prev) - 1
        rows.append(
            [0]
            + [prev[m - 1] + (n if first else m) * prev[m] for m in range(1, n + 1)]
            + [1]
        )
    return rows


def build_table(kind: str, max_n: int) -> list[list[int]]:
    """A fresh copy of triangle rows 0..max_n (row n holds columns 0..n)."""
    if kind not in (FIRST_UNSIGNED, SECOND):
        raise ValueError(f"unknown Stirling kind: {kind!r}")
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    return _grow([[1]], kind, max_n)


_first_rows = [[1]]
_second_rows = [[1]]


def stirling1_unsigned(n: int, m: int) -> int:
    """Unsigned Stirling number of the first kind [n m]; 0 outside the triangle."""
    if n < 0 or m < 0 or m > n:
        return 0
    if n >= len(_first_rows):
        _grow(_first_rows, FIRST_UNSIGNED, n)
    return _first_rows[n][m]


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind {n m}; 0 outside the triangle."""
    if n < 0 or m < 0 or m > n:
        return 0
    if n >= len(_second_rows):
        _grow(_second_rows, SECOND, n)
    return _second_rows[n][m]
