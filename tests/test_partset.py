import pickle
import random

import pytest
from hypothesis import given, strategies as st

from compenum.oracle import random_partset
from compenum.partset import MAX_VALUE, PartSet, SetSpecError, parse_setspec


def members_brute(A, n):
    return [v for v in range(1, n + 1) if v in A]


# -- parsing ----------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,upto,expect",
    [
        ("all", 6, [1, 2, 3, 4, 5, 6]),
        ("ge:3", 6, [3, 4, 5, 6]),
        ("set:1,2", 6, [1, 2]),
        ("set:", 6, []),
        ("mod:2:1", 9, [1, 3, 5, 7, 9]),
        ("mod:3:0", 12, [3, 6, 9, 12]),
        ("ap:2:3", 12, [2, 5, 8, 11]),
        ("not:mod:3:0", 10, [1, 2, 4, 5, 7, 8, 10]),
        ("not:ap:1:3", 10, [2, 3, 5, 6, 8, 9]),
        ("not:all", 10, []),
        ("not:set:2", 5, [1, 3, 4, 5]),
        ("mod:3:", 6, []),
        ("ge:4+1", 6, [1, 4, 5, 6]),
        ("mod:2:1+2,10-1,11", 12, [2, 3, 5, 7, 9, 10]),
        ("all-2", 4, [1, 3, 4]),
        ("not:mod:3:0+3", 7, [1, 2, 4, 5, 7]),
    ],
)
def test_parse_and_membership(spec, upto, expect):
    A = parse_setspec(spec)
    assert A.members_upto(upto) == expect
    assert members_brute(A, upto) == expect


@pytest.mark.parametrize(
    "bad,pos",
    [
        ("mod:3", 5),
        ("foo:1", 0),
        ("ap:4:0", 5),
        ("set:0", 4),
        ("ge:0", 3),
        ("mod:3:7", 6),
        ("mod:0:1", 4),
        ("mod:2:1+0", 8),
        ("mod:2:1+2-2", 10),
        ("mod:2:1+", 8),
        ("mod:2:1 +2", 7),
        ("all-1+2", 5),
    ],
)
def test_parse_errors_carry_position(bad, pos):
    with pytest.raises(SetSpecError) as exc:
        parse_setspec(bad)
    assert exc.value.position == pos


def test_parse_refuses_integers_above_the_bound():
    top, over = MAX_VALUE, MAX_VALUE + 1
    assert parse_setspec(f"mod:{top}:{top - 1}") == PartSet(top, frozenset({top - 1}))
    assert parse_setspec(f"set:000{top}") == PartSet.finite({top})
    assert parse_setspec(f"ge:{top}").least() == top
    assert parse_setspec(f"ap:{top}:{top}-{top}").removed == frozenset({top})
    for spec, pos in (
        (f"mod:{over}:1", 4),
        (f"ge:{over}", 3),
        (f"set:5,{over}", 6),
        (f"ap:{over}:1", 3),
        (f"ap:1:{over}", 5),
        (f"not:all+{over}", 8),
        (f"all-3,{over}", 6),
        (f"set:000{over}", 4),
        ("set:" + "9" * 5000, 4),  # refused from its length, not converted
    ):
        with pytest.raises(SetSpecError, match=f"integer above {top} \\(position {pos}\\)"):
            parse_setspec(spec)


def test_parse_rejects_trailing_garbage():
    with pytest.raises(SetSpecError):
        parse_setspec("all:junk")


# -- constructors and canonical form ----------------------------------------


def test_everything_and_threshold():
    assert PartSet.everything().members_upto(4) == [1, 2, 3, 4]
    assert PartSet.from_threshold(3).members_upto(6) == [3, 4, 5, 6]
    assert PartSet.finite((4, 2)).members_upto(9) == [2, 4]


def test_arithmetic_progression():
    A = PartSet.arithmetic_progression(2, 3)
    assert A.members_upto(12) == [2, 5, 8, 11]


def test_ap_spec_is_the_arithmetic_progression():
    for a in range(1, 13):
        for b in range(1, 13):
            A = parse_setspec(f"ap:{a}:{b}")
            assert A == PartSet.arithmetic_progression(a, b)
            assert A.members_upto(40) == list(range(a, 41, b))


def test_exceptions_canonicalized():
    # adding a value already in the pattern is a no-op, removing one
    # outside the pattern likewise
    A = PartSet(2, frozenset({1}), added=frozenset({3}), removed=frozenset({4}))
    assert A.added == frozenset()
    assert A.removed == frozenset()
    B = PartSet(2, frozenset({1}), added=frozenset({4}), removed=frozenset({3}))
    assert 4 in B and 3 not in B


def test_partset_is_a_frozen_checked_record():
    A = parse_setspec("mod:3:1,2+3-4")
    with pytest.raises(AttributeError):
        A.modulus = 4
    B = PartSet(3, {2, 1}, added=[3], removed=(4,))
    assert A == B and hash(A) == hash(B)
    C = pickle.loads(pickle.dumps(A))
    assert type(C) is PartSet and C == A and str(C) == str(A)
    for args in ((0,), (True,), (3, {3}), (3, {1}, {0}), (3, {1}, {2}, {2})):
        with pytest.raises(ValueError):
            PartSet(*args)


def test_membership_rejects_nonpositive():
    A = PartSet.everything()
    with pytest.raises(ValueError):
        0 in A
    with pytest.raises(ValueError):
        True in A


def test_str_forms():
    assert str(parse_setspec("set:1,2")) == "set:1,2"
    assert str(parse_setspec("all")) == "all"
    assert str(parse_setspec("not:mod:3:0")) == "mod:3:1,2"
    assert str(PartSet(5, frozenset({0, 2}), removed=frozenset({10}))) == "mod:5:0,2-10"
    assert str(parse_setspec("ge:5")) == "all-1,2,3,4"
    assert str(PartSet(3, frozenset(), added=frozenset({2}))) == "mod:3:+2"


@given(st.integers(0, 10_000), st.booleans())
def test_str_parses_back(seed, complement):
    A = random_partset(random.Random(seed), max_modulus=12)
    if complement:
        A = A.complement()
    assert parse_setspec(str(A)) == A


# -- complement --------------------------------------------------------------


def test_complement_examples():
    A = parse_setspec("mod:3:0")
    assert A.complement().members_upto(8) == [1, 2, 4, 5, 7, 8]
    assert parse_setspec("all").complement().members_upto(20) == []


@given(st.integers(0, 10_000))
def test_complement_involution_and_partition(seed):
    rng = random.Random(seed)
    A = random_partset(rng)
    B = A.complement()
    assert B.complement() == A
    for v in range(1, 80):
        assert (v in A) != (v in B)


# -- series form -------------------------------------------------------------


def expand_series_form(P, Q, k, order):
    # P + Q * (1 + x^k + x^2k + ...) truncated
    out = [0] * (order + 1)
    for i, c in enumerate(P.coeffs):
        if i <= order:
            out[i] += c
    for i, c in enumerate(Q.coeffs):
        j = i
        while j <= order:
            out[j] += c
            j += k
    return out


@given(st.integers(0, 10_000))
def test_series_form_matches_indicator(seed):
    rng = random.Random(seed)
    A = random_partset(rng)
    P, Q, k = A.series_form()
    got = expand_series_form(P, Q, k, 60)
    want = [0] + [1 if v in A else 0 for v in range(1, 61)]
    assert got == want


def test_series_form_shape():
    P, Q, k = parse_setspec("not:mod:3:0").series_form()
    assert k == 3
    assert str(P) == "0"
    assert str(Q) == "x + x^2"
    assert Q.coeffs[0] == 0 and len(Q.coeffs) <= k + 1


@given(st.integers(0, 10_000))
def test_members_walk_matches_brute_force(seed):
    rng = random.Random(seed)
    A = random_partset(rng)
    assert A.members_upto(200) == members_brute(A, 200)


def test_least_is_the_first_member():
    # the class walk against the sorted members, on random sets and their
    # complements; members_upto past every exception and two periods holds
    # the least member of any nonempty set
    for m in (1, 3, 6, 12, 24):
        rng = random.Random(f"least:{m}")
        for _ in range(200):
            B = random_partset(rng, m)
            for A in (B, B.complement()):
                members = A.members_upto(max(A.added | A.removed, default=0) + 2 * A.modulus)
                assert A.least() == (members[0] if members else None), A
    # a class that starts past a long run of removed values, and a sparse class
    assert parse_setspec(f"ge:{MAX_VALUE}").least() == MAX_VALUE
    assert parse_setspec(f"mod:{MAX_VALUE}:{MAX_VALUE - 1}").least() == MAX_VALUE - 1
    assert parse_setspec(f"mod:{MAX_VALUE}:0").least() == MAX_VALUE
    assert parse_setspec("mod:3:0,2-2,3,5").least() == 6
    assert parse_setspec("mod:3:0,2+4-2,3,5").least() == 4
    assert parse_setspec("set:").least() is None and parse_setspec("set:9,4").least() == 4


def test_a_base_without_exceptions_is_built_once(monkeypatch):
    # the base comes out of its builder checked and canonical, so with no
    # + or - list after it the parser returns it as it is; ge:t would
    # otherwise check its t - 1 removed values a second time
    built = []
    new = PartSet.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(PartSet, "__new__", staticmethod(counting))
    cases = [("ge:5", 1), ("ap:7:3", 1), ("mod:3:0", 1), ("set:2", 1), ("all", 1)]
    for spec, count in cases + [("not:ge:5", 2), ("ge:5-9", 2), ("ap:7:3+1", 2)]:
        built.clear()
        A = parse_setspec(spec)
        assert len(built) == count, spec
        assert A == parse_setspec(str(A)), spec
