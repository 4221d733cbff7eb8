import pickle
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from compenum.bivariate import bivariate_table, length_row, odd_parts_by_length
from compenum.genfun import count
from compenum.oracle import (
    compositions,
    dp_length_table,
    random_partset,
    row_check_against_slices,
)
from compenum.partset import PartSet, parse_setspec

ODD = parse_setspec("mod:2:1")


def test_odd_parts_row_five():
    t = bivariate_table(ODD, 5)
    assert t.row(5) == (0, 1, 0, 3, 0, 1)
    assert t.count(5, 1) == 1 and t.count(5, 3) == 3 and t.count(5, 5) == 1
    assert t.count(5, 2) == 0


def test_all_parts_row_four():
    t = bivariate_table(PartSet.everything(), 4)
    assert t.row(4) == (0, 1, 3, 3, 1)
    assert t.marginal(4) == 8


def test_row_zero_is_empty_composition():
    t = bivariate_table(ODD, 3)
    assert t.row(0) == (1,) + (0,) * 3
    assert t.count(0, 0) == 1


def test_table_is_a_frozen_record():
    t = bivariate_table(ODD, 4)
    with pytest.raises(AttributeError):
        t.limit = 5
    u = pickle.loads(pickle.dumps(t))
    assert type(u) is type(t) and u == t and hash(u) == hash(t)
    assert u.count(3, 1) == 1  # the table's count(n, m), not the tuple's


def test_count_bounds():
    t = bivariate_table(ODD, 4)
    assert t.count(3, 9) == 0  # length beyond the table is a true zero
    with pytest.raises(ValueError):
        t.count(5, 1)
    with pytest.raises(ValueError):
        t.count(2, -1)


def test_row_check_against_slices_cases():
    assert row_check_against_slices(ODD, 5)
    assert row_check_against_slices(PartSet.everything(), 8)
    assert row_check_against_slices(parse_setspec("set:"), 3)
    assert row_check_against_slices(parse_setspec("not:mod:3:0"), 9)


def test_marginals_match_counts_on_random_sets():
    rng = random.Random(7)
    for _ in range(10):
        A = random_partset(rng)
        t = bivariate_table(A, 25)
        for n in range(26):
            assert t.marginal(n) == count(A, n)


def length_histogram(A, n):
    return Counter(len(c) for c in compositions(A, n, limit=14))


def test_rows_match_enumeration_by_length():
    for spec in ("mod:2:1", "all", "not:mod:3:0", "set:2,3"):
        A = parse_setspec(spec)
        t = bivariate_table(A, 14)
        for n in range(15):
            hist = length_histogram(A, n)
            for m in range(n + 1):
                assert t.count(n, m) == hist.get(m, 1 if (n, m) == (0, 0) else 0)


def pascal(n, k):
    # independent binomial oracle, plain Pascal recursion
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def test_odd_parts_by_length_formula():
    # confirmed against enumeration first, then against the binomial oracle
    for n in range(15):
        hist = length_histogram(ODD, n)
        for m in range(n + 1):
            expect = hist.get(m, 1 if (n, m) == (0, 0) else 0)
            assert odd_parts_by_length(n, m) == expect
            if (n + m) % 2 == 0 and m >= 1:
                assert odd_parts_by_length(n, m) == pascal((n + m) // 2 - 1, m - 1)


def test_odd_parts_by_length_edges():
    assert odd_parts_by_length(0, 0) == 1
    assert odd_parts_by_length(4, 3) == 0  # parity mismatch
    assert odd_parts_by_length(5, 3) == 3
    with pytest.raises(ValueError):
        odd_parts_by_length(-1, 0)


@given(st.integers(0, 10_000), st.integers(0, 60))
@settings(max_examples=150, deadline=None)
def test_packed_rows_match_the_length_dp(seed, n):
    A = random_partset(random.Random(seed))
    row = length_row(A, n)
    t = bivariate_table(A, n)
    assert row == t.row(n) == dp_length_table(A, n)[n]
    assert t.marginal(n) == count(A, n)


@pytest.mark.parametrize("spec", ["all", "mod:2:1", "not:mod:3:0", "ge:5", "set:1,2,3,5,8,13,21"])
def test_streamed_rows_match_the_length_dp_to_200(spec):
    A = parse_setspec(spec)
    table = dp_length_table(A, 200)
    for n in (*range(0, 200, 13), 199, 200):
        assert length_row(A, n) == table[n][: n + 1]


@pytest.mark.parametrize("spec", ["ge:2", "ge:3", "ge:9", "mod:2:0", "mod:3:2", "mod:5:3", "mod:7:0"])
def test_narrow_slots_match_the_length_dp_to_120(spec):
    # a smallest part a >= 2 narrows the slots of row n to about
    # (n / a) * bitlen(a) bits, so each n gets its own width
    A = parse_setspec(spec)
    table = dp_length_table(A, 120)
    for n in range(121):
        assert length_row(A, n) == table[n][: n + 1]
    assert bivariate_table(A, 120).entries == tuple(map(tuple, table))


def test_packed_rows_at_the_edges():
    assert length_row(PartSet.everything(), 0) == (1,)
    assert length_row(parse_setspec("set:"), 0) == (1,)
    for n in (1, 2, 9, 40):
        assert length_row(parse_setspec("set:"), n) == (0,) * (n + 1)
    seven = parse_setspec("set:7")
    for n in range(7):
        assert length_row(seven, n) == ((1,) if n == 0 else (0,) * (n + 1))
    assert length_row(seven, 14) == (0, 0, 1) + (0,) * 12
    # ge:5 has P = -x - x^2 - x^3 - x^4: negative series coefficients
    ge5 = parse_setspec("ge:5")
    for n in range(61):
        assert length_row(ge5, n) == dp_length_table(ge5, n)[n]
    # c(60, 30) = C(59, 29) is about 2^55.7: a 4-byte slot cannot hold it
    row = length_row(PartSet.everything(), 60)
    assert row == dp_length_table(PartSet.everything(), 60)[60]
    assert max(row) == comb(59, 29)
    with pytest.raises(ValueError):
        length_row(ODD, -1)
