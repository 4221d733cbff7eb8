import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from compenum import closedform, genfun, polyring
from compenum.cli import main
from compenum.genfun import composition_bits, composition_gf, composition_series, count, length_parts
from compenum.oracle import dp_count_series, length_slice_series, random_partset
from compenum.partset import PartSet, parse_setspec
from compenum.polyring import IntPolynomial, RationalGF, poly_gcd


def test_gf_display_frozen():
    cases = {
        "all": "(1 - x) / (1 - 2*x)",
        "not:ap:1:3": "(1 - x^3) / (1 - x^2 - 2*x^3)",
        "not:ap:2:3": "(1 - x^3) / (1 - x - 2*x^3)",
        "not:mod:3:0": "(1 - x^3) / (1 - x - x^2 - x^3)",
        "mod:2:1": "(1 - x^2) / (1 - x - x^2)",
        "set:1,2": "(1) / (1 - x - x^2)",
        "set:": "(1) / (1)",
        "ge:2": "(1 - x) / (1 - x - x^2)",
    }
    for spec, want in cases.items():
        assert str(composition_gf(parse_setspec(spec))) == want


def test_avoiding_any_progression_matches_the_paper():
    # C(x) = (1 - x)(1 - x^b) / ((1 - 2x)(1 - x^b) + x^a - x^(a+1)) for
    # parts avoiding a, a + b, a + 2b, ..., also when a > b
    x = IntPolynomial((0, 1))
    for a in range(1, 13):
        for b in range(1, 13):
            xa, xb = IntPolynomial.monomial(a), IntPolynomial.monomial(b)
            paper = RationalGF((1 - x) * (1 - xb), (1 - 2 * x) * (1 - xb) + xa - xa * x)
            assert composition_gf(parse_setspec(f"not:ap:{a}:{b}")) == paper


def test_counts_pinned():
    assert count(parse_setspec("not:ap:1:3"), 10) == 19
    assert count(parse_setspec("not:mod:3:0"), 7) == 37
    assert count(parse_setspec("not:ap:2:3"), 7) == 18
    assert count(parse_setspec("set:"), 5) == 0
    assert count(parse_setspec("set:"), 0) == 1
    assert count(PartSet.everything(), 30) == 2**29


def test_count_holds_only_a_window_of_terms():
    # c(n) = F(n), 20827 bits at n = 30000; all 30001 terms take about 43 MB
    A = parse_setspec("mod:2:1")
    tracemalloc.start()
    try:
        value = count(A, 30000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value.bit_length() == 20827
    assert peak < 1_000_000


def test_series_prefix():
    got = composition_series(parse_setspec("not:mod:3:0"), 7)
    assert got == (1, 1, 2, 3, 6, 11, 20, 37)


def test_series_matches_count_pointwise():
    A = parse_setspec("mod:2:1")
    s = composition_series(A, 60)
    for n in (0, 1, 7, 33, 60):
        assert count(A, n) == s[n]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_gf_series_equals_dp(seed):
    rng = random.Random(seed)
    A = random_partset(rng)
    assert composition_series(A, 45) == dp_count_series(A, 45)


@given(st.integers(0, 10_000), st.sampled_from((6, 12, 24)), st.integers(0, 120))
@settings(max_examples=80, deadline=None)
def test_sparse_stream_matches_the_reduced_gf_and_the_dp(seed, max_modulus, n):
    A = random_partset(random.Random(seed), max_modulus)
    series = composition_series(A, n)
    assert series == composition_gf(A).series(n)
    assert series == dp_count_series(A, n)


def plain_parts(A):
    P, Q, k = A.series_form()
    cyc = 1 - IntPolynomial.monomial(k)
    return cyc, cyc, cyc * P + Q


@given(st.integers(0, 10_000), st.sampled_from((6, 12, 24)))
@settings(max_examples=300, deadline=None)
def test_sieve_cancels_the_euclid_gcd(seed, max_modulus):
    A = random_partset(random.Random(seed), max_modulus)
    num, low, high = plain_parts(A)
    assert length_parts(A) == (num, low, high)
    den = low - high
    g = poly_gcd(num, den)
    gf = composition_gf(A)
    assert gf.den * g in (den, -den)
    assert gf.num * g in (num, -num)
    assert poly_gcd(gf.num, gf.den).degree == 0
    assert gf.series(60) == RationalGF(num, den).series(60)
    assert gf.den[0] == 1


@pytest.mark.parametrize(
    "spec, want",
    [
        ("mod:4:1,3", "(1 - x^2) / (1 - x - x^2)"),
        ("mod:6:1,3,5", "(1 - x^2) / (1 - x - x^2)"),
        ("mod:12:0,4,8", "(1 - x^4) / (1 - 2*x^4)"),
    ],
)
def test_sieve_cancellations_pinned(spec, want):
    assert str(composition_gf(parse_setspec(spec))) == want


@pytest.mark.parametrize("k", (1, 2, 13, 12, 210, 720, 1024))
def test_each_fold_comes_once_and_equals_the_direct_fold(k):
    # each d | k once, its fold equal to the direct sums of den[j::d]
    rng = random.Random(k)
    divisors = [d for d in range(1, k + 1) if k % d == 0]
    primes = [p for p in divisors[1:] if all(p % q for q in range(2, p))]
    for length in (1, k, k + 1, 3 * k + 2):
        den = [rng.randint(-3, 3) for _ in range(length)]
        folds = list(genfun._folds(den, k, primes))
        assert sorted(d for d, _ in folds) == divisors
        for d, fold in folds:
            assert fold == [sum(den[j::d]) for j in range(d)]


def test_fold_adds_the_chunks():
    # both ways of folding: fewer chunks than slots, and more
    rng = random.Random(3)
    shapes = [(1, 1), (1, 40), (40, 1), (9, 1), (9, 9), (9, 12), (9, 13)]
    shapes += [(rng.randint(1, 40), rng.randint(1, 80)) for _ in range(60)]
    for d, chunks in shapes:
        p = [rng.randint(-9, 9) for _ in range(d * chunks)]
        want = [sum(chunk) for chunk in zip(*(p[at : at + d] for at in range(0, len(p), d)))]
        assert genfun._fold(p, d) == want


def test_length_parts_is_the_cleared_series_form():
    for seed in range(200):
        A = random_partset(random.Random(seed), 12)
        P, Q, k = A.series_form()
        cyc = IntPolynomial((1,) + (0,) * (k - 1) + (-1,))
        assert length_parts(A) == (cyc, cyc, cyc * P + Q)


def test_series_and_bylength_take_no_gcd(monkeypatch, capsys):
    def no_gcd(p, q):
        raise AssertionError("gcd taken")

    monkeypatch.setattr(polyring, "poly_gcd", no_gcd)
    monkeypatch.setattr(closedform, "poly_gcd", no_gcd)
    with pytest.raises(AssertionError):
        main(["closed-form", "not:mod:3:0"])  # the patch is live: find_roots' squarefree test
    for spec in ("not:mod:3:0", "not:mod:40:0", "mod:20000:1,3,7,100,2001", "set:", "all"):
        assert main(["series", spec, "--limit", "30"]) == 0
        assert main(["bylength", spec, "30"]) == 0
        assert main(["count", spec, "30"]) == 0
        assert main(["nth", spec, "30"]) == 0
        assert main(["nth", spec, "1000", "--mod", "7"]) == 0
    for spec in ("not:mod:3:0", "not:mod:40:0", "mod:12:0,4,8", "set:", "all"):
        assert main(["recurrence", spec]) == 0
    assert main(["table", "--mod3", "--limit", "10"]) == 0


@given(st.integers(0, 10_000), st.integers(0, 300))
@settings(max_examples=100, deadline=None)
def test_composition_bits_bounds_the_count(seed, n):
    A = random_partset(random.Random(seed))
    assert count(A, n).bit_length() <= composition_bits(A, n)
    # the packed length rows size every row up to n by the bound at n
    assert composition_bits(A, n) <= composition_bits(A, n + 1)


def test_composition_bits_edges():
    assert composition_bits(parse_setspec("set:"), 10**9) == 1
    assert composition_bits(PartSet.everything(), 0) == 1
    assert composition_bits(PartSet.everything(), 1412) == 1412
    # ceil(1411 / 7) blocks of 3 bits, plus one
    assert composition_bits(parse_setspec("set:7"), 1412) == 607


def test_length_slices_sum_to_counts():
    A = parse_setspec("not:mod:3:0")
    n = 12
    total = [0] * (n + 1)
    for m in range(1, n + 1):
        sl = length_slice_series(A, m, n)
        for i in range(n + 1):
            total[i] += sl[i]
    dp = dp_count_series(A, n)
    assert total[1:] == list(dp[1:])


def test_length_slice_odd_parts():
    # three odd parts: C((n+3)/2 - 1, 2) of them, zero for even n
    sl = length_slice_series(parse_setspec("mod:2:1"), 3, 9)
    assert sl[9] == 10
    assert sl[7] == 6
    assert sl[8] == 0
