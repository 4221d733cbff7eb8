import pickle
import random
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from compenum.genfun import composition_gf
from compenum.oracle import dp_count_series, random_partset
from compenum.partset import parse_setspec
from compenum.polyring import IntPolynomial, coefficient_mod
from compenum.recurrence import (
    LinearRecurrence,
    avoid_residue_recurrence,
    avoid_residue_seed_formula,
    no_multiples_recurrence,
    recurrence_from_gf,
)

PRIMES = (97, 2**31 - 1, 10**9 + 7)
MODULI = PRIMES + (2, 10**12, 2**89 - 1)  # any modulus >= 2 works


def test_from_gf_fields_frozen():
    rec = recurrence_from_gf(composition_gf(parse_setspec("not:mod:3:0")))
    assert rec.order == 3
    assert rec.coeffs == (1, 1, 1)
    assert rec.corrections == ((3, -1),)
    assert rec.initial_terms == (1, 1, 2, 3)


def test_recurrence_is_a_frozen_record():
    rec = recurrence_from_gf(composition_gf(parse_setspec("not:mod:3:0")))
    with pytest.raises(AttributeError):
        rec.order = 4
    same = LinearRecurrence(3, [1, 1, 1], [[3, -1]], [1, 1, 2, 3])
    assert rec == same and hash(rec) == hash(same)
    copy = pickle.loads(pickle.dumps(rec))
    assert type(copy) is LinearRecurrence and copy == rec
    assert LinearRecurrence(0, ()) == LinearRecurrence(0, (), (), (1,))


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        LinearRecurrence(2, (1,))  # coeffs too short
    with pytest.raises(ValueError):
        LinearRecurrence(2, (1, 0))  # trailing zero coefficient
    with pytest.raises(ValueError):
        LinearRecurrence(1, (1,), ((2, 1), (2, -1)))  # duplicate index
    with pytest.raises(ValueError):
        LinearRecurrence(3, (1, 1, 1), (), (1, 1))  # seed shorter than order
    with pytest.raises(ValueError):
        LinearRecurrence(1, (1,), ((-1, 2),))


def test_direct_construction_refuses_non_integers():
    # refused, not truncated: int() made ((1, 1.5),) into ((1, 1),)
    with pytest.raises(ValueError, match=r"^1\.5 in 'corrections' is not an integer$"):
        LinearRecurrence(1, (1,), ((1, 1.5),), (1, 1))
    with pytest.raises(ValueError, match=r"^1\.5 in 'coeffs' is not an integer$"):
        LinearRecurrence(1, (1.5,), (), (1, 1))
    for order, coeffs, corrections in (
        (1, (Decimal(2),), ()),
        (1, (True,), ()),
        (1, (1,), ((1.0, 1),)),
        (1, (1,), ((1, Decimal(1)),)),
        (1, (1,), ((False, 1),)),
        (1.0, (1,), ()),
    ):
        with pytest.raises(ValueError, match="is not an integer$"):
            LinearRecurrence(order, coeffs, corrections, (1, 1))
    # the seed is checked too, and may hold the exact Decimals the CLI streams
    for term, shown in ((2.5, "2.5"), (2.0, "2.0"), (True, "True"), ("1", "'1'"), (None, "None")):
        with pytest.raises(ValueError) as info:
            LinearRecurrence(1, (1,), (), (1, term))
        assert str(info.value) == f"{shown} in 'initial' is not an integer"
    rec = LinearRecurrence(2, (1, 1), ((1, -1),), (Decimal(1), Decimal(0), Decimal(1)))
    assert rec.corrections == ((1, -1),) and rec.initial_terms[2] == 1


def test_order_zero_with_corrections():
    rec = LinearRecurrence(0, (), ((0, 1),), (1,))
    assert rec.to_gf().series(4) == (1, 0, 0, 0, 0)


def test_replay_consistency():
    gf_rec = recurrence_from_gf(composition_gf(parse_setspec("not:mod:3:0")))
    assert gf_rec.replay_consistent()
    # the family constructors fold the boundary -1 into the seed instead
    assert not no_multiples_recurrence(4).replay_consistent()
    assert not avoid_residue_recurrence(4, 2).replay_consistent()


def test_no_multiples_seed_and_terms():
    rec = no_multiples_recurrence(4)
    assert rec.initial_terms == (1, 1, 2, 4, 7)
    assert rec.to_gf().series(6) == (1, 1, 2, 4, 7, 14, 27)
    for k in range(2, 7):
        dp = dp_count_series(parse_setspec(f"not:mod:{k}:0"), 40)
        assert no_multiples_recurrence(k).to_gf().series(40) == dp


def test_avoid_residue_matches_counts_for_every_pair():
    for k in range(2, 7):
        for m in range(1, k):
            dp = dp_count_series(parse_setspec(f"not:ap:{m}:{k}"), 40)
            assert avoid_residue_recurrence(k, m).to_gf().series(40) == dp


def test_avoid_residue_small_cases_frozen():
    assert avoid_residue_recurrence(3, 2).to_gf().series(7) == (1, 1, 1, 2, 4, 6, 10, 18)
    assert avoid_residue_recurrence(3, 1).to_gf().series(6) == (1, 0, 1, 1, 1, 3, 3)
    assert avoid_residue_recurrence(3, 1).initial_terms == (1, 0, 1, 1)


def test_seed_formula_values_and_where_they_fail():
    # collapses at m = 1
    assert avoid_residue_seed_formula(3, 1) == (1, 0, 0, 0)
    # fine for k = m + 1
    assert avoid_residue_seed_formula(3, 2) == (1, 1, 1, 2)
    # overcounts from j = m + 2 on: true count of 5 avoiding part 3 is 11
    assert avoid_residue_seed_formula(5, 3) == (1, 1, 2, 3, 6, 12)
    assert dp_count_series(parse_setspec("not:ap:3:5"), 5)[5] == 11
    with pytest.raises(ValueError):
        avoid_residue_seed_formula(3, 3)


def test_constructor_validation():
    with pytest.raises(ValueError):
        no_multiples_recurrence(1)
    with pytest.raises(ValueError):
        avoid_residue_recurrence(3, 0)
    with pytest.raises(ValueError):
        avoid_residue_recurrence(2, 2)


def test_nth_matches_terms():
    gf = no_multiples_recurrence(2).to_gf()
    assert gf.coefficient(10) == 55
    terms = gf.series(30)
    for n in (0, 1, 2, 17, 30):
        assert gf.coefficient(n) == terms[n]


def test_nth_mod_matches_exact():
    recs = [
        recurrence_from_gf(composition_gf(parse_setspec(spec)))
        for spec in ("not:mod:3:0", "not:ap:2:3", "mod:2:1", "all")
    ]
    # seeds that fold in boundary terms; d_k = 2 vanishes mod 2; order 0
    recs += [
        no_multiples_recurrence(4),
        avoid_residue_recurrence(5, 2),
        LinearRecurrence(0, (), ((0, 1),), (1,)),
    ]
    for gf in (rec.to_gf() for rec in recs):
        terms = gf.series(2000)
        for p in MODULI:
            for n in (0, 1, 2, 3, 50, 777, 2000):
                assert coefficient_mod(gf, n, p) == terms[n] % p


def test_nth_mod_tribonacci_spot():
    rec = recurrence_from_gf(composition_gf(parse_setspec("not:mod:3:0")))
    assert coefficient_mod(rec.to_gf(), 20, 10**9 + 7) == 101902
    assert coefficient_mod(rec.to_gf(), 10**12, 10**9 + 7) == 297441196


def test_nth_mod_order_60_frozen():
    # value from the earlier x^n mod charpoly evaluator
    rec = recurrence_from_gf(composition_gf(parse_setspec("not:mod:60:0")))
    assert rec.order == 60
    assert coefficient_mod(rec.to_gf(), 10**18 + 3, 2**61 - 1) == 1279753486602326295


def test_nth_mod_rejects_tiny_modulus():
    rec = no_multiples_recurrence(2)
    with pytest.raises(ValueError):
        coefficient_mod(rec.to_gf(), 5, 1)


@given(st.integers(0, 10_000), st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_gf_recurrence_agrees_with_dp(seed, n):
    rng = random.Random(seed)
    A = random_partset(rng)
    rec = recurrence_from_gf(composition_gf(A))
    assert rec.to_gf().series(n)[-1] == dp_count_series(A, n)[n]


@given(st.integers(0, 10_000), st.sampled_from(MODULI))
@settings(max_examples=30, deadline=None)
def test_nth_mod_agrees_with_terms_random(seed, p):
    rng = random.Random(seed)
    A = random_partset(rng)
    rec = recurrence_from_gf(composition_gf(A))
    n = rng.randrange(0, 600)
    assert coefficient_mod(rec.to_gf(), n, p) == rec.to_gf().series(n)[-1] % p


@st.composite
def coeffs_and_seeds(draw):
    # d_1, ..., d_k with d_k != 0: order 0, sparse rows, where (1 - x) D
    # has twice D's taps, and dense rows; then a seed covering the order
    coeffs = draw(
        st.one_of(
            st.just(()),
            st.lists(st.sampled_from((0, 0, 0, 0, 3, -2)), max_size=12),
            st.lists(st.integers(-9, 9), max_size=12),
        ).map(lambda cs: IntPolynomial(cs).coeffs)
    )
    k = len(coeffs)
    return coeffs, tuple(draw(st.lists(st.integers(-(10**30), 10**30), min_size=k + 1, max_size=k + 6)))


@given(coeffs_and_seeds())
@example(((1,) * 6, no_multiples_recurrence(6).initial_terms))  # (1 - x) D = 1 - 2x + x^7
# a dense D whose (1 - x) D has more taps, so it is read unstepped
@example(((2, -3, 5, 1, -4), (7, -1, 3, 0, 2, 10**30, -5)))
@settings(max_examples=200, deadline=None)
def test_to_gf_numerator_is_the_truncated_product(case):
    coeffs, seed = case
    gf = LinearRecurrence(len(coeffs), coeffs, (), seed).to_gf()
    assert gf.den == IntPolynomial((1,) + tuple(-d for d in coeffs))
    assert gf.num == IntPolynomial((gf.den * IntPolynomial(seed)).coeffs[: len(seed)])


def test_json_round_trip():
    rec = recurrence_from_gf(composition_gf(parse_setspec("not:ap:1:3")))
    again = LinearRecurrence.from_dict(rec.to_dict())
    assert again == rec
    assert again.to_gf().series(25) == rec.to_gf().series(25)
    gf = composition_gf(parse_setspec("not:ap:1:3"))
    back = recurrence_from_gf(gf).to_gf()
    assert (back.num.coeffs, back.den.coeffs) == (gf.num.coeffs, gf.den.coeffs)


def test_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        LinearRecurrence.from_dict({"order": 2})
    with pytest.raises(ValueError):
        LinearRecurrence.from_dict({"order": "x", "coeffs": [], "corrections": [], "initial": [1]})
    # only JSON integers: a float (even an integral one), a bool or a
    # string is refused, not truncated or coerced
    good = {"order": 1, "coeffs": [1], "corrections": [[1, 1]], "initial": [1, 2]}
    assert LinearRecurrence.from_dict(good).initial_terms == (1, 2)
    for key, value in (
        ("coeffs", [1.7]),
        ("coeffs", [2.0]),
        ("coeffs", [True]),
        ("coeffs", ["1"]),
        ("initial", [1, 2.9]),
        ("initial", [1, float("inf")]),
        ("order", 1.0),
        ("corrections", [[1.0, 1]]),
        ("corrections", [[1, False]]),
    ):
        with pytest.raises(ValueError, match="^malformed recurrence dict"):
            LinearRecurrence.from_dict({**good, key: value})
    # arrays must be JSON arrays and corrections [index, value] pairs; the
    # message names the key
    with pytest.raises(ValueError, match="'coeffs' must be an array, not str$"):
        LinearRecurrence.from_dict({"order": 0, "coeffs": "", "corrections": {}, "initial": [1]})
    for key, value, message in (
        ("coeffs", "1", "'coeffs' must be an array, not str"),
        ("coeffs", {"0": 1}, "'coeffs' must be an array, not dict"),
        ("coeffs", (1,), "'coeffs' must be an array, not tuple"),
        ("initial", "ab", "'initial' must be an array, not str"),
        ("initial", 12, "'initial' must be an array, not int"),
        ("corrections", {}, "'corrections' must be an array, not dict"),
        ("corrections", [[1, 2, 3]], "'corrections' must hold [index, value] pairs"),
        ("corrections", [[1]], "'corrections' must hold [index, value] pairs"),
        ("corrections", [1, 1], "'corrections' must hold [index, value] pairs"),
        ("corrections", ["ab"], "'corrections' must hold [index, value] pairs"),
        ("coeffs", [1.7], "1.7 in 'coeffs' is not an integer"),
        ("corrections", [[1, "2"]], "'2' in 'corrections' is not an integer"),
        ("order", None, "None in 'order' is not an integer"),
        ("initial", [1, True], "True in 'initial' is not an integer"),
        ("coeffs", [1, 1], "coeffs must list exactly `order` values"),
        ("coeffs", [0], "d_k must be nonzero (true order)"),
        ("corrections", [[-1, 1]], "correction indices must be distinct and nonnegative"),
        ("initial", [1], "initial_terms must cover max(order, corrections)"),
    ):
        with pytest.raises(ValueError) as info:
            LinearRecurrence.from_dict({**good, key: value})
        assert str(info.value) == f"malformed recurrence dict: {message}"
