import collections
import copy
import itertools
import operator
import pickle
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlpoly import exact, sequences, series
from hlpoly.audit import GridSpec, Point, run_identity
from hlpoly.cli import main
from hlpoly.exact import SingularParameterError, ensure_nonsingular
from hlpoly.sequences import (
    FAMILIES,
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
)
from hlpoly.series import PowerSeries, kernel
from hlpoly.stirling import stirling1_unsigned

import bruteforce
from bruteforce import family_egf, to_egf

P111 = Params(1, 1, 1)

SMALL_GRID = [
    Params(k, alpha, a)
    for alpha, a in [(1, 1), (2, 1), (Fraction(1, 2), 1), (3, Fraction(1, 3))]
    for k in (-2, -1, 0, 1, 2, 3)
]


# -- Params -------------------------------------------------------------------


def test_params_rejects_zero_alpha():
    with pytest.raises(ValueError):
        Params(1, 0, 1)


@pytest.mark.parametrize("k", [1.5, 1.0, Fraction(1), "1", True])
def test_params_rejects_a_k_that_is_not_an_int(k):
    with pytest.raises(ValueError, match="k must be an int"):
        Params(k, 1, 1)


# a float is its binary expansion: 0.1 would audit 3602879701896397/2**55
@pytest.mark.parametrize(
    "alpha, a, name, value",
    [
        (0.1, 1, "alpha", "0.1"),
        (1, 0.5, "a", "0.5"),
        (1.0, 1, "alpha", "1.0"),
        ("1/2", 1, "alpha", "'1/2'"),
    ],
)
def test_params_rejects_an_alpha_or_a_that_is_not_rational(alpha, a, name, value):
    message = f"^{name} must be an int or a rational, got {re.escape(value)}$"
    with pytest.raises(ValueError, match=message):
        Params(1, alpha, a)
    with pytest.raises(ValueError, match=message):
        GridSpec(k_values=(1,), pairs=((alpha, a),))


def test_params_keeps_an_exact_fraction_and_copies_any_other_rational():
    alpha, a = Fraction(1, 2), Fraction(-3)
    params = Params(1, alpha, a)
    assert params.alpha is alpha and params.a is a

    class Half(Fraction):
        pass

    params = Params(1, Half(1, 2), 1)
    assert type(params.alpha) is Fraction and type(params.a) is Fraction
    assert (params.alpha, params.a) == (Fraction(1, 2), 1)


def test_params_singular_index():
    assert Params(1, 1, -2).singular_index(5) == 2
    assert Params(1, 1, -2).singular_index(1) is None
    assert Params(2, Fraction(1, 2), -1).singular_index(5) == 2
    assert Params(1, 1, Fraction(1, 2)).singular_index(100) is None
    with pytest.raises(SingularParameterError):
        ensure_nonsingular(Fraction(1), Fraction(-2), 3)


# alpha and a = -alpha * root: the root is a negative, a non-integer or a
# nonnegative integer m, and only the last makes the point singular
rooted_params = st.builds(
    lambda k, alpha, root: Params(k, alpha, -alpha * root),
    st.integers(-3, 4),
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6)),
    st.one_of(
        st.integers(-5, 45).map(Fraction),
        st.builds(Fraction, st.integers(-90, 90), st.integers(2, 6)),
    ),
)


@settings(max_examples=100, deadline=None)
@example(Params(1, 2, 6))  # root -3
@example(Params(1, 2, -3))  # root 3/2
@example(Params(1, Fraction(-1, 2), 20))  # root 40
@given(rooted_params)
def test_singular_index_matches_a_fresh_scan(params):
    for m_max in range(-2, 46):
        expected = exact.singular_index(params.alpha, params.a, m_max)
        assert params.singular_index(m_max) == expected


def test_params_weight():
    def weight(params, m):
        weights, den = params.scaled_weights(m)
        return Fraction(weights[m], den)

    assert weight(Params(2, 1, 1), 1) == Fraction(1, 4)
    assert weight(Params(-2, 1, 1), 2) == 9
    assert weight(Params(0, 7, 5), 3) == 1


# Parameters with alpha*m + a != 0 for every m up to the largest request.
nonsingular_params = st.builds(
    Params,
    st.integers(-3, 4),
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
).filter(lambda params: params.singular_index(30) is None)


@settings(max_examples=80, deadline=None)
@given(nonsingular_params, st.lists(st.integers(0, 30), min_size=1, max_size=8))
def test_scaled_weights_memo_matches_a_fresh_build(params, requests):
    # requests in any order: the prefix grows on a request past it and is
    # returned as it is on any other, so after each request it is the fresh
    # build up to the largest m_max asked for so far, over its least common
    # denominator
    for seen, m_max in enumerate(requests, 1):
        largest = max(requests[:seen])
        expected = bruteforce.scaled_weights(params.k, params.alpha, params.a, largest)
        assert params.scaled_weights(m_max) == expected
    fresh = Params(params.k, params.alpha, params.a)
    assert params == fresh
    assert hash(params) == hash(fresh)
    assert repr(params) == repr(fresh)


def test_a_params_is_a_value():
    # (k, alpha, a) alone fix equality, hash and repr, the memos do not, and
    # no attribute can be assigned or deleted; a copy or a pickled copy is
    # an equal Params
    params = Params(2, Fraction(1, 2), 1)
    assert repr(params) == "Params(k=2, alpha=Fraction(1, 2), a=Fraction(1, 1))"
    for same in (copy.copy(params), pickle.loads(pickle.dumps(params))):
        assert same == params and repr(same) == repr(params)
    params.scaled_weights(6)
    explicit_sequence(Family.CAUCHY1, 4, params)
    fresh = Params(2, Fraction(2, 4), Fraction(1))
    assert params == fresh and hash(params) == hash(fresh)
    assert params != Params(3, Fraction(1, 2), 1) and params != Params(2, Fraction(1, 2), 2)
    assert params != (2, Fraction(1, 2), Fraction(1))
    for name in ("k", "alpha", "a", "_prefix", "_values"):
        with pytest.raises(AttributeError):
            setattr(params, name, getattr(params, name))
        with pytest.raises(AttributeError):
            delattr(params, name)
    assert copy.copy(params) == params


# alpha and a negative or not whole and k of either sign, k <= 0 included:
# the base alpha*m + a is made from integers as (P S m + R Q) / (Q S), for
# alpha = P/Q and a = R/S, so its sign and denominator must come out right
weight_params = st.builds(
    Params,
    st.integers(-5, 3),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
).filter(lambda params: params.singular_index(16) is None)


@settings(max_examples=80, deadline=None)
@example(Params(-3, Fraction(-3, 2), Fraction(-7, 3)), 12)
@example(Params(0, Fraction(-1, 2), Fraction(5, 4)), 5)
@example(Params(-1, Fraction(4, 6), Fraction(-9, 6)), 16)  # both given unreduced
@example(Params(2, Fraction(5, 3), Fraction(-7, 2)), 9)
@given(weight_params, st.integers(0, 16))
def test_each_weight_is_one_over_its_base_to_the_k(params, m_max):
    weights, den = params.scaled_weights(m_max)
    for m in range(m_max + 1):
        base = params.alpha * m + params.a
        assert Fraction(weights[m], den) == 1 / base**params.k


def test_scaled_weights_builds_each_weight_once_per_instance(monkeypatch):
    calls = []
    pow_rat = sequences.pow_rat
    monkeypatch.setattr(
        sequences, "pow_rat", lambda base, k: calls.append(base) or pow_rat(base, k)
    )
    warm = Params(2, Fraction(1, 2), 1)
    warm.scaled_weights(20)
    warm.scaled_weights(5)
    warm.scaled_weights(20)
    assert len(calls) == 21
    warm.scaled_weights(24)
    assert len(calls) == 25
    # a new instance of the same key starts an empty memo
    copy = Params(warm.k, warm.alpha, warm.a)
    assert copy == warm
    copy.scaled_weights(3)
    assert len(calls) == 29
    assert Params(3, warm.alpha, warm.a).scaled_weights(4) == bruteforce.scaled_weights(
        3, Fraction(1, 2), 1, 4
    )


def test_a_thm8_run_grows_each_points_weight_prefix_once():
    # THM8 sizes each point's prefix to its largest evaluable n*p before its
    # first row, so no later value, in that label's run or in the next
    # labels', grows it again; with ascending multipliers and primes, growing
    # on demand would grow it at almost every row
    grows = collections.Counter()

    class Counted(Params):
        def scaled_weights(self, m_max):
            if m_max >= len(self._prefix[0]):
                grows[self] += 1
            return super().scaled_weights(m_max)

    pairs = tuple((Fraction(alpha), Fraction(a)) for alpha, a in ((1, 1), (3, "1/3"), (1, -20)))
    grid = GridSpec(k_values=(-1, 1, 2), pairs=pairs, primes=(3, 5, 7), multipliers=(1, 2, 3, 4))
    points = [Point(Counted(*key), [], {}) for key in grid._keys]
    for identity in ("THM8_C1", "THM8_C2", "THM8_B"):
        run_identity(identity, grid, points=points)
    # k = -1 has no congruence rows; 3,1/3 reads to 4*7 (p = 3 divides
    # alpha), and alpha*m + a vanishes at m = 20 for 1,-20, so 3*5 is its top
    tops = {Fraction(1): 28, Fraction(1, 3): 28, Fraction(-20): 15}
    assert grows == {params: 1 for params, _, _ in points if params.k >= 1}
    for params, _, _ in points:
        top = tops[params.a] if params.k >= 1 else -1
        assert len(params._prefix[0]) == top + 1


def test_explicit_scaled_sums_each_family_once_per_instance(monkeypatch):
    lookups = []
    stirling2 = sequences.stirling2
    monkeypatch.setattr(
        sequences, "stirling2", lambda n, m: lookups.append((n, m)) or stirling2(n, m)
    )
    params = Params(2, Fraction(1, 2), 1)
    first = explicit_scaled(Family.BERNOULLI, 6, params)
    assert len(lookups) == 28  # m = 0..n for n = 0..6
    assert explicit_scaled(Family.BERNOULLI, 6, params) is first
    assert explicit_sequence(Family.BERNOULLI, 6, params) == [
        Fraction(num, first[1]) for num in first[0]
    ]
    assert len(lookups) == 28
    # another n_max is summed afresh, over the weight prefix's denominator
    explicit_scaled(Family.BERNOULLI, 3, params)
    assert len(lookups) == 38
    fresh = Params(2, Fraction(1, 2), 1)
    assert params == fresh and hash(params) == hash(fresh) and repr(params) == repr(fresh)
    # a new instance, from the kept Fractions too, starts with no sums
    assert explicit_scaled(Family.BERNOULLI, 6, fresh) == first
    assert explicit_scaled(Family.BERNOULLI, 6, Params(params.k, params.alpha, params.a)) == first
    assert len(lookups) == 38 + 2 * 28


# -- explicit formulas: frozen fixtures ---------------------------------------


def test_bernoulli_values():
    B = Family.BERNOULLI
    assert explicit_value(B, 0, Params(3, 2, Fraction(1, 2))) == 8
    assert explicit_value(B, 2, P111) == Fraction(1, 6)
    assert explicit_value(B, 3, P111) == 0


def test_cauchy1_values():
    C1 = Family.CAUCHY1
    assert explicit_value(C1, 0, Params(2, 1, 3)) == Fraction(1, 9)
    assert explicit_value(C1, 2, P111) == Fraction(-1, 6)
    assert explicit_value(C1, 3, Params(1, 2, 1)) == Fraction(22, 105)


def test_cauchy2_values():
    C2 = Family.CAUCHY2
    assert explicit_value(C2, 0, Params(1, 5, 4)) == Fraction(1, 4)
    assert explicit_value(C2, 1, P111) == Fraction(-1, 2)
    assert explicit_value(C2, 2, P111) == Fraction(5, 6)


def test_index_zero_is_a_power_of_a():
    for params in SMALL_GRID:
        expected = params.a ** -params.k
        for family in FAMILIES:
            assert explicit_value(family, 0, params) == expected


@pytest.mark.parametrize(
    "function",
    [
        explicit_value,
        explicit_sequence,
        explicit_scaled,
        oracle_sequence,
        deriv_coeffs_printed,
        deriv_coeffs_oracle,
    ],
    ids=lambda function: function.__name__,
)
def test_negative_index_rejected(function):
    with pytest.raises(ValueError, match="sequence index must be >= 0"):
        function(Family.BERNOULLI, -1, P111)


def test_singular_parameter_raises():
    bad = Params(1, 1, -2)
    assert explicit_value(Family.CAUCHY1, 1, bad) is not None  # below the singular index: fine
    with pytest.raises(SingularParameterError):
        explicit_value(Family.CAUCHY1, 2, bad)


@settings(max_examples=40, deadline=None)
@given(rooted_params, st.lists(st.integers(0, 40), min_size=1, max_size=6))
def test_a_shared_row_store_gives_the_values_of_a_fresh_one(params, indices):
    # one store per family for every index drawn, in any order; a singular
    # index raises with or without a store, exactly where the scan says so
    for family in FAMILIES:
        rows = coefficient_rows(family)
        for n in indices:
            try:
                ensure_nonsingular(params.alpha, params.a, n)
            except SingularParameterError:
                for store in (rows, None):
                    with pytest.raises(SingularParameterError):
                        explicit_value(family, n, params, store)
                continue
            value = explicit_value(family, n, params, rows)
            # each store-less call on a Params of its own: `params` keeps the
            # value just computed, so asking it again would compare it with
            # itself
            fresh = Params(params.k, params.alpha, params.a)
            assert value == explicit_value(family, n, fresh)
            fresh = Params(params.k, params.alpha, params.a)
            assert value == explicit_sequence(family, n, fresh)[n]


@settings(max_examples=40, deadline=None)
@given(
    nonsingular_params,
    st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True),
    st.lists(st.integers(0, 30), max_size=3),
)
def test_explicit_values_makes_what_is_not_kept_in_one_pass(params, indices, kept):
    # values kept first, by explicit_value, are returned as the very objects
    # kept; the rest come from one sum pass and equal the one-index values
    for family in FAMILIES:
        params = Params(params.k, params.alpha, params.a)
        held = {n: explicit_value(family, n, params) for n in kept}
        values = explicit_values(family, indices, params, coefficient_rows(family))
        for n, value in zip(indices, values, strict=True):
            assert value is explicit_value(family, n, params)
            assert n not in held or value is held[n]
            fresh = Params(params.k, params.alpha, params.a)
            assert type(value) is Fraction and value == explicit_value(family, n, fresh)
    with pytest.raises(ValueError):
        explicit_values(Family.CAUCHY1, [2, -1], params)
    assert explicit_values(Family.CAUCHY1, [], params) == []


def test_a_store_made_for_another_rule_is_refused_before_any_sum_is_kept():
    # bernoulli's rows given to cauchy1 once gave a wrong value silently and
    # left wrong halves, which cauchy2 then read as its own
    params = Params(2, Fraction(1, 2), 1)
    wrong = coefficient_rows(Family.BERNOULLI)
    with pytest.raises(ValueError, match="another coefficient rule"):
        explicit_value(Family.CAUCHY1, 3, params, wrong)
    for call, family, rows in (
        (explicit_sequence, Family.CAUCHY2, wrong),
        (explicit_scaled, Family.BERNOULLI, coefficient_rows(Family.CAUCHY1)),
        (deriv_coeffs_printed, Family.BERNOULLI, wrong),
        (explicit_sequence, Family.CAUCHY1, derivative_rows(Family.CAUCHY1)),
    ):
        with pytest.raises(ValueError, match="another coefficient rule"):
            call(family, 3, params, rows)
    assert not any(params._halves.values()) and not any(params._values.values())
    assert params._sums == {}
    # the twin's halves stay clean: each family reads what a fresh Params gives
    assert explicit_value(Family.CAUCHY2, 3, params) == Fraction(-1619, 900)
    fresh = Params(2, Fraction(1, 2), 1)
    assert explicit_value(Family.CAUCHY1, 3, params) == explicit_value(Family.CAUCHY1, 3, fresh)
    # the cauchy pair shares one coefficient rule, so one store serves both
    shared, twin = coefficient_rows(Family.CAUCHY1), Params(2, Fraction(1, 2), 1)
    assert explicit_sequence(Family.CAUCHY2, 3, twin, shared) == explicit_sequence(
        Family.CAUCHY2, 3, Params(2, Fraction(1, 2), 1)
    )


def test_a_row_store_builds_each_row_once(monkeypatch):
    lookups = []
    stirling2 = sequences.stirling2
    monkeypatch.setattr(
        sequences, "stirling2", lambda n, m: lookups.append((n, m)) or stirling2(n, m)
    )
    rows = coefficient_rows(Family.BERNOULLI)
    # Params of the test's own: a shared one keeps values from other tests,
    # so what this test counts would depend on which ran first
    for params in (Params(1, 1, 1), Params(2, Fraction(1, 2), 3)):
        for n in (6, 3, 6):
            explicit_value(Family.BERNOULLI, n, params, rows)
    assert len(lookups) == 7 + 4  # rows 6 and 3, each once; no row in between
    assert rows(6) is rows(6)
    # without a store, each call builds its row afresh; each call has its
    # own Params, since one Params keeps the value it returned
    explicit_value(Family.BERNOULLI, 6, Params(1, 1, 1))
    explicit_value(Family.BERNOULLI, 6, Params(1, 1, 1))
    assert len(lookups) == 11 + 2 * 7


def test_a_params_computes_each_value_once(monkeypatch):
    # a row built is its coefficient at m = 0 read; no call below is given a
    # row store, so without the Params' memo each call would build its rows.
    # One counted function per coefficient function: the cauchy pair shares
    # [n m], so it shares one, and the halves of its sums
    built = collections.Counter()
    counted_for = {}
    first_kind = sequences._STIRLING_COEFF[Family.CAUCHY1][0]
    for family, (coeff, *rest) in list(sequences._STIRLING_COEFF.items()):

        def counted(n, m, coeff=coeff):
            built[coeff, n] += m == 0
            return coeff(n, m)

        counted = counted_for.setdefault(coeff, counted)
        monkeypatch.setitem(sequences._STIRLING_COEFF, family, (counted, *rest))
    params = Params(2, Fraction(1, 2), 1)
    for family in FAMILIES:
        values = explicit_sequence(family, 6, params)
        # explicit_value returns the very Fractions of the list
        assert all(explicit_value(family, n, params) is values[n] for n in range(7))
        seven = explicit_value(family, 7, params)
        assert explicit_value(family, 7, params) is seven
        # a caller's edit of the list does not reach the memo
        kept = list(values)
        values[0] = Fraction(99)
        values.append(Fraction(98))
        again = explicit_sequence(family, 6, params)
        assert again is not values and all(map(operator.is_, again, kept))
        assert explicit_value(family, 0, params) is kept[0]
    # cauchy2 builds no row: it reads the halves cauchy1 left, row 7's too
    assert len(counted_for) == 2
    assert built == {(coeff, n): 1 for coeff in counted_for for n in range(8)}
    # a new instance of the same key starts an empty memo and computes afresh
    fresh = Params(params.k, params.alpha, params.a)
    assert explicit_value(Family.CAUCHY1, 7, fresh) == explicit_value(Family.CAUCHY1, 7, params)
    assert explicit_value(Family.CAUCHY1, 7, fresh) is not explicit_value(
        Family.CAUCHY1, 7, params
    )
    assert built[first_kind, 7] == 2
    # the value memo is the Stirling path's: the series path never reads it
    assert "_values" not in _names(sequences._family_series.__code__)


@settings(max_examples=60, deadline=None)
@given(nonsingular_params, st.lists(st.integers(0, 30), min_size=1, max_size=6))
def test_a_cauchy_family_reads_its_twins_halves_in_any_order(params, indices):
    # one family's values at indices in any order, each request past the
    # weight prefix growing its denominator, then the other family's: halves
    # kept over an older denominator are rescaled when read, so every value
    # and sum equals the one computed alone
    key = params.k, params.alpha, params.a
    top = max(indices)
    for first, second in ((Family.CAUCHY1, Family.CAUCHY2), (Family.CAUCHY2, Family.CAUCHY1)):
        shared = Params(*key)
        for n in indices:
            explicit_value(first, n, shared)
        alone = explicit_sequence(second, top, Params(*key))
        assert [explicit_value(second, n, shared) for n in indices] == [alone[n] for n in indices]
        nums, den = explicit_scaled(second, top, shared)
        assert [Fraction(num, den) for num in nums] == alone


# -- oracle path --------------------------------------------------------------


def test_oracle_fixtures():
    assert oracle_sequence(Family.BERNOULLI, 3, P111) == [
        1,
        Fraction(1, 2),
        Fraction(1, 6),
        0,
    ]
    assert oracle_sequence(Family.CAUCHY1, 3, P111) == [
        1,
        Fraction(1, 2),
        Fraction(-1, 6),
        Fraction(1, 4),
    ]
    for family in FAMILIES:
        assert oracle_sequence(family, 0, Params(2, 3, 5)) == [Fraction(1, 25)]


def test_oracle_matches_bruteforce():
    for family in FAMILIES:
        for params in [P111, Params(2, 2, 1), Params(-1, Fraction(1, 2), 1)]:
            assert oracle_sequence(family, 8, params) == family_egf(
                family.value, params.k, params.alpha, params.a, 8
            )


def test_formula_equals_oracle_on_grid():
    for family in FAMILIES:
        for params in SMALL_GRID:
            assert explicit_sequence(family, 10, params) == oracle_sequence(
                family, 10, params
            )


def test_k_zero_degeneracy():
    # at k = 0 the weights collapse to 1 and the three series close up:
    # bernoulli -> e^t, cauchy1 -> 1 + t, cauchy2 -> 1/(1+t)
    params = Params(0, 7, Fraction(3, 5))
    n = 9
    assert oracle_sequence(Family.BERNOULLI, n, params) == [1] * (n + 1)
    assert oracle_sequence(Family.CAUCHY1, n, params) == [1, 1] + [0] * (n - 1)
    assert oracle_sequence(Family.CAUCHY2, n, params) == [
        (-1) ** i * factorial(i) for i in range(n + 1)
    ]
    for family in FAMILIES:
        assert explicit_sequence(family, n, params) == oracle_sequence(
            family, n, params
        )


def test_classical_specialization():
    # alpha = a = 1 reproduces the classical sequences
    bernoulli_k2 = oracle_sequence(Family.BERNOULLI, 4, Params(2, 1, 1))
    assert bernoulli_k2 == [
        1,
        Fraction(1, 4),
        Fraction(-1, 36),
        Fraction(-1, 24),
        Fraction(7, 450),
    ]
    cauchy_first = oracle_sequence(Family.CAUCHY1, 5, P111)
    assert cauchy_first == [
        1,
        Fraction(1, 2),
        Fraction(-1, 6),
        Fraction(1, 4),
        Fraction(-19, 30),
        Fraction(9, 4),
    ]
    # cross-check against the independent expander for k = 1..3, n <= 8
    for family in FAMILIES:
        for k in (1, 2, 3):
            assert oracle_sequence(family, 8, Params(k, 1, 1)) == family_egf(
                family.value, k, 1, 1, 8
            )


# -- Kaneko's poly-Bernoulli numbers of negative index ------------------------

KANEKO_MAX = 11


def _negative_index_table(path, alpha=1, a=1):
    """table[n][k] = B_n^(-k), the bernoulli family at k -> -k, for
    n, k = 0..KANEKO_MAX, read off one evaluation path."""
    columns = [
        path(Family.BERNOULLI, KANEKO_MAX, Params(-k, alpha, a)) for k in range(KANEKO_MAX + 1)
    ]
    return [[column[n] for column in columns] for n in range(KANEKO_MAX + 1)]


def _kaneko_closed_form(n, k):
    """sum_{j=0..min(n,k)} (j!)^2 {n+1 j+1} {k+1 j+1}, from the
    recurrence-free Stirling numbers of `bruteforce`."""
    second = bruteforce.stirling2_explicit
    return sum(
        factorial(j) ** 2 * second(n + 1, j + 1) * second(k + 1, j + 1)
        for j in range(min(n, k) + 1)
    )


BOTH_PATHS = [explicit_sequence, oracle_sequence]


@pytest.mark.parametrize("path", BOTH_PATHS, ids=lambda path: path.__name__)
def test_kaneko_duality_and_closed_form_at_alpha_and_a_one(path):
    """M. Kaneko, "Poly-Bernoulli numbers", J. Theor. Nombres Bordeaux 9
    (1997) 221-228, proves for n, k >= 0 the duality B_n^(-k) = B_k^(-n) and
    the closed form B_n^(-k) = sum_{j=0..min(n,k)} (j!)^2 {n+1 j+1} {k+1 j+1}.
    At alpha = a = 1 the bernoulli family is Kaneko's, so both hold on either
    path; at k <= 0 the weights are (m + 1)^|k|, the branch of the weight
    base with a nonnegative power."""
    table = _negative_index_table(path)
    for n in range(KANEKO_MAX + 1):
        for k in range(KANEKO_MAX + 1):
            assert table[n][k] == _kaneko_closed_form(n, k), (n, k)
            assert table[n][k] == table[k][n], (n, k)


@pytest.mark.parametrize("alpha, a", [(2, 1), (1, 2), (Fraction(1, 2), 1)])
@pytest.mark.parametrize("path", BOTH_PATHS, ids=lambda path: path.__name__)
def test_kaneko_duality_fails_away_from_alpha_and_a_one(path, alpha, a):
    """Kaneko's duality (Kaneko 1997) is a fact of alpha = a = 1: the
    generalised family is not symmetric, so a change that made it symmetric
    by mistake is seen here."""
    table = _negative_index_table(path, alpha, a)
    asymmetric = [
        (n, k) for n in range(KANEKO_MAX + 1) for k in range(n) if table[n][k] != table[k][n]
    ]
    assert asymmetric


# -- one series composition per family and point -----------------------------


def _outcome(function, family, n, params):
    try:
        return function(family, n, params)
    except SingularParameterError:
        return SingularParameterError


# a regular pair, then alpha*m + a vanishing at m = 6 and at m = 4
SERIES_PAIRS = [(1, 1), (1, -6), (Fraction(1, 2), -3), (1, -4)]


@pytest.mark.parametrize("alpha, a", SERIES_PAIRS, ids=["1,1", "1,-6", "1/2,-3", "1,-4"])
@pytest.mark.parametrize("family", FAMILIES, ids=[family.value for family in FAMILIES])
def test_the_kept_series_gives_the_values_of_a_fresh_one(family, alpha, a):
    # for n, m up to 6 and both call orders on one Params, each call returns
    # what it returns on a fresh Params, SingularParameterError included:
    # s = n + 1 and s <= n both occur at every singular pair
    fresh = {
        (function, n): _outcome(function, family, n, Params(2, alpha, a))
        for function in (oracle_sequence, deriv_coeffs_oracle)
        for n in range(7)
    }
    for n, m in itertools.product(range(7), repeat=2):
        calls = [(oracle_sequence, n), (deriv_coeffs_oracle, m)]
        for order in (calls, calls[::-1]):
            shared = Params(2, alpha, a)
            for function, index in order:
                assert _outcome(function, family, index, shared) == fresh[function, index]


def test_an_audit_composes_each_family_once_per_point(monkeypatch):
    # the audit_deep grid: 9 points, values and derivative coefficients of
    # every family; bernoulli composes through phi_apply, the cauchy families
    # through phif_apply
    calls = collections.Counter()
    for family, (name, compose, inverse) in list(sequences._SERIES_FOR.items()):

        def counted(*args, compose=compose):
            calls[compose.__name__] += 1
            return compose(*args)

        monkeypatch.setitem(sequences._SERIES_FOR, family, (name, counted, inverse))
    argv = ["audit", "--identity", "all", "--format", "json", "--n-max", "24",
            "--pair", "1,1", "--pair", "1/2,1", "--pair", "3,1/3", "--k-values=-2,1,3"]
    assert main(argv) == 1
    assert calls == {"phi_apply": 9, "phif_apply": 18}


def _names(code) -> set[str]:
    """The global and attribute names a function's code reads, its nested
    code (comprehensions, lambdas) included."""
    nested = (const for const in code.co_consts if hasattr(const, "co_names"))
    return set(code.co_names).union(*map(_names, nested))


def test_the_series_memo_and_the_stirling_memos_stay_apart():
    stirling_memos = {"_sums", "_values", "_prefix", "scaled_weights", "_stirling_sums"}
    assert not stirling_memos & _names(sequences._family_series.__code__)
    for function in (
        sequences._stirling_sums,
        sequences._stirling_values,
        explicit_scaled,
        explicit_value,
        explicit_sequence,
        deriv_coeffs_printed,
    ):
        assert "_series" not in _names(function.__code__), function.__name__


SERIES_SIDES = [(oracle_sequence, explicit_sequence), (deriv_coeffs_oracle, deriv_coeffs_printed)]


@pytest.mark.parametrize(
    "function, stirling", SERIES_SIDES, ids=["oracle_sequence", "deriv_coeffs_oracle"]
)
def test_known_values_decide_the_series_side_and_change_no_value(function, stirling):
    # without known, every entry is a new Fraction; with the Stirling side's
    # values as known, the same values, an equal entry being known's object
    # and an unequal one a new Fraction (derivative rows of both kinds occur)
    kinds = collections.Counter()
    for params in SMALL_GRID:
        for family in FAMILIES:
            known = stirling(family, 6, params)
            plain = function(family, 6, params)
            assert all(type(value) is Fraction for value in plain)
            assert not any(map(operator.is_, plain, known))
            values = function(family, 6, Params(params.k, params.alpha, params.a), known=known)
            assert values == plain
            for x, y in zip(known, values):
                assert type(y) is Fraction and (y is x) == (y == x)
                kinds[y is x] += 1
            # a wrong known entry is not taken: the series' value is built
            wrong = [*known[:2], known[2] + 1, *known[3:]]
            values = function(family, 6, params, known=wrong)
            assert values == plain and values[2] is not wrong[2]
    assert kinds[True] and (kinds[False] or function is oracle_sequence)
    with pytest.raises(ValueError):
        function(Family.CAUCHY1, 6, P111, known=[Fraction(0)] * 6)


def test_a_kept_value_is_read_before_any_check(monkeypatch):
    # a memo hit is dict lookups alone: no index or singularity check, and a
    # family hashes by identity, in C
    assert Family.__hash__ is object.__hash__
    params = Params(1, 1, -3)
    value = explicit_value(Family.BERNOULLI, 2, params)

    def refused(*args):
        raise AssertionError("checked on a memo hit")

    monkeypatch.setattr(sequences, "_check_index", refused)
    monkeypatch.setattr(sequences, "_ensure_nonsingular", refused)
    assert explicit_value(Family.BERNOULLI, 2, params) is value
    with pytest.raises(AssertionError):
        explicit_value(Family.BERNOULLI, 3, params)
    monkeypatch.undo()
    with pytest.raises(ValueError):
        explicit_value(Family.BERNOULLI, -1, params)
    with pytest.raises(SingularParameterError):
        explicit_value(Family.BERNOULLI, 3, params)


# -- derivative coefficients --------------------------------------------------


def test_deriv_printed_fixtures():
    assert deriv_coeffs_printed(Family.CAUCHY1, 1, P111) == [0, Fraction(1, 2)]
    assert deriv_coeffs_printed(Family.CAUCHY2, 0, P111) == [0]
    assert deriv_coeffs_printed(Family.BERNOULLI, 0, P111) == [Fraction(1, 2)]


def test_deriv_oracle_fixtures():
    assert deriv_coeffs_oracle(Family.CAUCHY1, 1, P111) == [
        Fraction(1, 2),
        Fraction(1, 3),
    ]
    assert deriv_coeffs_oracle(Family.BERNOULLI, 0, P111) == [Fraction(1, 2)]


def test_deriv_oracle_first_value_is_second_sequence_member():
    # the constant derivative coefficient is always G'(0) = s_1
    for family in FAMILIES:
        for params in [P111, Params(2, 2, 1), Params(-1, 3, Fraction(1, 3))]:
            oracle = deriv_coeffs_oracle(family, 0, params)
            assert oracle[0] == explicit_value(family, 1, params)


def test_deriv_oracle_reconstructs_derivative():
    # multiplying the claimed coefficients back by the stated prefactor
    # series must reproduce G'(t) exactly
    n_max = 8
    for family in FAMILIES:
        for params in [P111, Params(2, Fraction(1, 2), 1), Params(-2, 1, 2)]:
            oracle = deriv_coeffs_oracle(family, n_max, params)
            claimed = PowerSeries(*to_egf(
                [oracle[n] / factorial(n) for n in range(n_max + 1)]
            ))
            prefactor = kernel(
                "exp_neg" if family is Family.BERNOULLI else "geom_1_over_1_plus_t",
                n_max,
            )
            g_values = oracle_sequence(family, n_max + 1, params)
            g_prime = PowerSeries(*to_egf(
                [g_values[n + 1] / factorial(n) for n in range(n_max + 1)]
            ))
            assert prefactor * claimed == g_prime


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(0, 10), nonsingular_params)
def test_corrected_derivative_closed_forms_equal_the_series_forced_ones(family, n_max, params):
    # README's THM9-THM11 errata: each corrected Stirling sum is the
    # coefficient sequence the generating function forces
    expected = [
        bruteforce.derivative_corrected(family.value, n, params.k, params.alpha, params.a)
        for n in range(n_max + 1)
    ]
    assert deriv_coeffs_oracle(family, n_max, params) == expected


def test_deriv_printed_is_what_it_says():
    # spot-check the closed form against a hand-expanded term
    params = Params(2, 3, Fraction(1, 3))
    n = 4
    expected = Fraction(0)
    for m in range(1, n + 1):
        expected += (
            stirling1_unsigned(n, m)
            * m
            * (-1) ** (n + m)
            / (params.alpha * m + params.a) ** params.k
        )
    assert deriv_coeffs_printed(Family.CAUCHY1, n, params)[n] == expected
    assert deriv_coeffs_printed(Family.CAUCHY2, n, params)[n] == expected


def test_a_shared_derivative_row_store_gives_the_values_of_a_fresh_one():
    # one store per family across points and last indices, as a THM9-THM11
    # run shares it; the store-less call is given a fresh Params, since the
    # first one keeps the sums it returned
    for family in FAMILIES:
        rows = derivative_rows(family)
        for params in SMALL_GRID:
            for n_max in (6, 3, 8):
                shared = deriv_coeffs_printed(family, n_max, params, rows)
                fresh = Params(params.k, params.alpha, params.a)
                assert shared == deriv_coeffs_printed(family, n_max, fresh)


def test_deriv_validity_range():
    # bernoulli printed coefficients reach alpha*(n+1) + a
    with pytest.raises(SingularParameterError):
        deriv_coeffs_printed(Family.BERNOULLI, 2, Params(1, 1, -3))
    with pytest.raises(SingularParameterError):
        deriv_coeffs_oracle(Family.CAUCHY1, 2, Params(1, 1, -3))


# -- a third path: the recurrence in k ----------------------------------------


def test_the_recurrence_in_k_reads_no_stirling_or_series_code():
    # every function it reads is Fraction or a math builtin: not hlpoly, and
    # not bruteforce's own Stirling numbers or series compositions
    read = _names(bruteforce.family_by_k_recurrence.__code__)
    called = [getattr(bruteforce, name, None) for name in read]
    modules = {function.__module__ for function in called if callable(function)}
    assert modules == {"fractions", "math"}


# alpha and a with small numerators and denominators; a point is drawn only
# where alpha*m + a != 0 for m <= 12
recurrence_points = st.tuples(
    st.sampled_from(FAMILIES),
    st.integers(-3, 4),
    st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 3)),
    st.integers(0, 12),
).filter(lambda point: Params(*point[1:4]).singular_index(point[4]) is None)


@settings(max_examples=60, deadline=None)
@example((Family.BERNOULLI, 1, Fraction(1), Fraction(1), 12))  # Kaneko's B_n^(1)
@example((Family.CAUCHY2, -3, Fraction(-5, 3), Fraction(7, 2), 12))
@given(recurrence_points)
def test_the_recurrence_in_k_equals_both_paths(point):
    family, k, alpha, a, n_max = point
    expected = bruteforce.family_by_k_recurrence(family.value, k, alpha, a, n_max)
    assert explicit_sequence(family, n_max, Params(k, alpha, a)) == expected
    assert oracle_sequence(family, n_max, Params(k, alpha, a)) == expected


DEPTH_POINTS = [
    (Family.BERNOULLI, Fraction(2), Fraction(1)),
    (Family.CAUCHY1, Fraction(1, 2), Fraction(1)),
    (Family.CAUCHY2, Fraction(-1, 3), Fraction(5, 2)),
]


@pytest.mark.parametrize(
    "family, alpha, a", DEPTH_POINTS, ids=[family.value for family, _, _ in DEPTH_POINTS]
)
@pytest.mark.parametrize("k", [3, -2])
def test_the_recurrence_in_k_equals_both_paths_at_depth(family, alpha, a, k):
    expected = bruteforce.family_by_k_recurrence(family.value, k, alpha, a, 60)
    params = Params(k, alpha, a)
    assert explicit_sequence(family, 60, params) == expected
    assert oracle_sequence(family, 60, params) == expected


# one sign planted in one path's table: that path leaves the recurrence and
# the other path stays on it


def test_a_stirling_sign_breaks_the_stirling_path_against_the_recurrence(monkeypatch):
    params = (2, Fraction(1, 2), Fraction(1))
    expected = bruteforce.family_by_k_recurrence("cauchy2", *params, 8)
    coeff, *rest = sequences._STIRLING_COEFF[Family.CAUCHY2]

    def mutant(n, m):
        return -coeff(n, m) if m == 1 else coeff(n, m)

    monkeypatch.setitem(sequences._STIRLING_COEFF, Family.CAUCHY2, (mutant, *rest))
    assert explicit_sequence(Family.CAUCHY2, 8, Params(*params)) != expected
    assert oracle_sequence(Family.CAUCHY2, 8, Params(*params)) == expected


def test_a_kernel_sign_breaks_the_series_path_against_the_recurrence(monkeypatch):
    params = (2, Fraction(1, 2), Fraction(1))
    expected = bruteforce.family_by_k_recurrence("cauchy1", *params, 8)
    value = series._KERNELS["log1p"]
    monkeypatch.setitem(series._KERNELS, "log1p", lambda n: -value(n) if n == 2 else value(n))
    assert oracle_sequence(Family.CAUCHY1, 8, Params(*params)) != expected
    assert explicit_sequence(Family.CAUCHY1, 8, Params(*params)) == expected
