"""The series path computes without calling the Stirling-sum path.

`tests/test_independence.py` checks the imports of `series`. Here the check
is by calls: with every Stirling lookup and both coefficient tables of
`sequences` made to raise, `oracle_sequence` and `deriv_coeffs_oracle` still
give their values, on a fresh `Params` and on one whose Stirling-side memos
hold wrong values. Given `known` values that are all wrong, they take none.
"""

from fractions import Fraction

import pytest

from hlpoly import sequences, stirling
from hlpoly.sequences import (
    FAMILIES,
    Params,
    deriv_coeffs_oracle,
    deriv_coeffs_printed,
    explicit_sequence,
    explicit_value,
    oracle_sequence,
)

N = 6
# nonsingular points: negative k, k = 0, non-integer and negative alpha and a
POINTS = [
    (2, 1, 1),
    (-1, Fraction(1, 2), Fraction(3, 2)),
    (3, Fraction(-1, 3), Fraction(5, 2)),
    (0, 2, 1),
]
ORACLES = (oracle_sequence, deriv_coeffs_oracle)


class Refused(dict):
    """A coefficient table that raises on any read."""

    def __getitem__(self, key):
        raise AssertionError(f"the series path read a Stirling table at {key!r}")

    def get(self, key, default=None):
        return self[key]


def refuse_the_stirling_path(monkeypatch):
    def refused(*args):
        raise AssertionError("the series path called a Stirling lookup")

    for module in (stirling, sequences):
        for name in ("stirling1_unsigned", "stirling2"):
            monkeypatch.setattr(module, name, refused)
    for table in ("_STIRLING_COEFF", "_DERIV_COEFF"):
        monkeypatch.setattr(sequences, table, Refused())


def fill_and_spoil_the_stirling_memos(params):
    """Fill every Stirling-side memo of `params`, then make each kept value
    one more than it was, in place."""
    for family in FAMILIES:
        explicit_sequence(family, N + 1, params)
        explicit_value(family, N + 1, params)
        deriv_coeffs_printed(family, N, params)
    assert params._sums and params._values and params._weights
    for kept in params._values.values():
        for n in kept:
            kept[n] += 1
    for key, (nums, den) in params._sums.items():
        params._sums[key] = tuple(num + den for num in nums), den
    params._weights[:] = [weight + 1 for weight in params._weights]
    weights, den = params._prefix
    weights[:] = [weight + den for weight in weights]


@pytest.mark.parametrize("filled", [False, True], ids=["fresh", "filled"])
@pytest.mark.parametrize("point", POINTS, ids=lambda point: ",".join(map(str, point)))
def test_the_series_side_calls_nothing_of_the_stirling_side(monkeypatch, point, filled):
    expected = {
        (oracle, family): oracle(family, N, Params(*point))
        for oracle in ORACLES
        for family in FAMILIES
    }
    params = Params(*point)
    if filled:
        fill_and_spoil_the_stirling_memos(params)
    refuse_the_stirling_path(monkeypatch)
    for (oracle, family), values in expected.items():
        # every known entry is off by one: each is decided, and none taken
        known = [value + 1 for value in values]
        decided = oracle(family, N, params, known=known)
        assert decided == values
        assert not any(x is y for x, y in zip(decided, known))
        assert oracle(family, N, params) == values
    # the tables raise when read, so the check above has teeth
    with pytest.raises(AssertionError):
        explicit_sequence(FAMILIES[0], N, Params(*point))
