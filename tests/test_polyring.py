import gc
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from compenum import polyring
from compenum.bivariate import length_row
from compenum.genfun import composition_gf, count, length_parts
from compenum.oracle import dp_count_series, random_partset
from compenum.partset import parse_setspec
from compenum.polyring import (
    ONE,
    IntPolynomial,
    RationalGF,
    coefficient_mod,
    _barrett,
    _pseudo_divmod,
    _sparser,
    divmod_fractions,
    expand,
    poly_gcd,
)

coeff_lists = st.lists(st.integers(-9, 9), min_size=0, max_size=9)


def poly(*cs):
    return IntPolynomial(tuple(cs))


def test_display_ascending_with_signs():
    assert str(poly(1, 0, -1, -2)) == "1 - x^2 - 2*x^3"
    assert str(poly(0, 1)) == "x"
    assert str(poly()) == "0"
    assert str(poly(-3, 2)) == "-3 + 2*x"


def test_trailing_zeros_trimmed_and_degree():
    p = poly(1, 2, 0, 0)
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert poly().degree == -1


def test_arithmetic_and_evaluation():
    a = poly(1, 2)
    b = poly(0, 1, 1)
    assert (a + b).coeffs == (1, 3, 1)
    assert (a - b).coeffs == (1, 1, -1)
    assert (a * b).coeffs == (0, 1, 3, 2)
    assert (-a).coeffs == (-1, -2)
    assert b(3) == 12 and a(0) == 1


def test_monomial_and_derivative():
    assert IntPolynomial.monomial(3, -2).coeffs == (0, 0, 0, -2)
    assert poly(1, 0, -1, -2).derivative().coeffs == (0, -2, -6)


def test_gcd_pulls_out_common_factor():
    g = poly_gcd(poly(1, 0, -1), poly(1, -1))
    # primitive gcd is 1 - x up to sign
    assert g.coeffs in ((1, -1), (-1, 1))


def test_divmod_fractions():
    q, r = divmod_fractions(poly(0, 0, 1), poly(1, 1))
    assert q == (Fraction(-1), Fraction(1))
    assert r == (Fraction(1),)


def test_gf_requires_unit_constant():
    with pytest.raises(ValueError):
        RationalGF(ONE, poly(0, 1))


def test_gf_equality():
    gf = RationalGF(poly(1, 1), poly(1, 0, -1))
    assert gf == RationalGF(ONE, poly(1, -1))
    assert gf.series(5) == (1, 1, 1, 1, 1, 1)
    with pytest.raises(TypeError):
        hash(gf)  # equal forms need not be equal tuples, and nothing reduces them


def test_gf_series_geometric():
    gf = RationalGF(ONE, poly(1, -2))
    assert gf.series(6) == (1, 2, 4, 8, 16, 32, 64)


@given(
    coeff_lists,
    coeff_lists,
    st.integers(0, 60),
    st.sampled_from((2, 3, 4, 10**12, 2**64, 2**89 - 1)),
)
def test_coefficient_mod_matches_series(num, den, n, m):
    gf = RationalGF(IntPolynomial(tuple(num)), IntPolynomial((1, *den)))
    assert coefficient_mod(gf, n, m) == gf.series(n)[n] % m
    assert gf.coefficient(n) == gf.series(n)[n]


# magnitudes at slot boundaries: 2^k - 1 fills k bits, -2^k needs k + 1 signed
wide = st.one_of(
    st.integers(-(2**200), 2**200),
    st.builds(lambda k, s: s * (2**k - 1), st.integers(1, 200), st.sampled_from((1, -1))),
    st.builds(lambda k, s: s * 2**k, st.integers(0, 200), st.sampled_from((1, -1))),
)


@given(
    st.lists(wide, max_size=12),
    st.lists(wide, max_size=12),
    st.one_of(st.integers(0, 13), st.integers(0, 400)),
    st.sampled_from((2, 97, 2**61 - 1, 10**40 + 1)),
)
@settings(max_examples=150, deadline=None)
def test_wide_signed_coefficients_match_series(num, den, n, m):
    # n below deg N and deg D exercises the truncation to n + 1 terms
    gf = RationalGF(IntPolynomial(tuple(num)), IntPolynomial((1, *den)))
    want = gf.series(n)[n]
    assert gf.coefficient(n) == want
    assert coefficient_mod(gf, n, m) == want % m


def test_products_that_fill_their_slots():
    # all coefficients +-(2^b - 1), signed so that every product term of
    # N(x)D(-x) is positive: with 8..15 terms per product coefficient they
    # reach the top bit of a slot sized 2b + bitlen(len D) + 1
    for b in (*range(1, 12), 198, 199, 200):
        big = 2**b - 1
        for length in range(1, 17):
            for sign in (1, -1):
                den = IntPolynomial((1, *(sign * (-1) ** i * big for i in range(1, length))))
                gf = RationalGF(IntPolynomial((sign * big,) * length), den)
                for n in (length - 1, 2 * length, 61):
                    assert gf.coefficient(n) == gf.series(n)[n]


# magnitudes up to 2^300, 2^k - 1 filling k bits and 2^k needing k + 1
magnitudes = st.one_of(
    st.integers(0, 2**300),
    st.builds(lambda k, e: 2**k - e, st.integers(1, 300), st.integers(0, 1)),
)


@st.composite
def wide_rows(draw):
    # (num, den, n) with every row of one sign, so that no product slot
    # cancels, num up to 3 * len(den) long and n up to 4 * len(den)
    def row(size):
        sign = draw(st.sampled_from((1, -1)))
        return [sign * c for c in draw(st.lists(magnitudes, max_size=size))]

    den = [1, *row(11)]
    num = row(3 * len(den))
    return num, den, draw(st.integers(0, 4 * len(den)))


@given(wide_rows())
@example(([2**300], [1], 3))  # odd n, N = [c], D = 1: no slot of N is left
@example(([], [1, -(2**300)], 5))  # N = 0
@example(([7, 2**300, -5], [1], 1))  # D = 1: Do is empty
@example(([2**300 - 1, 3], [1, 0, 2**299, 0, -1], 7))  # an all-zero odd half of D
@example(([-127, 127], [1, 127, -127], 5))  # the packed slots at 0 and 2^8 - 1
@example(([63] * 7, [1, -63, 63, -63, 63, -63, 63], 13))  # products reach a slot's top bit
@example(([63] * 15, [1, *(63 * (-1) ** i for i in range(1, 15))], 29))  # one bit short would carry
@example(([1, 0, 0, 2**300], [1, 0, -1, -1], 4))  # n < 16: the tail alone reads N's top term
@example(([2**300, -(2**300), -(2**300)], [1, -1, -1], 33))  # N = 2^300 D: step 1 cancels N, slots stay wide
@settings(max_examples=200, deadline=None)
def test_exact_kernel_at_the_slot_edges_matches_series(args):
    num, den, n = args
    gf = RationalGF(poly(*num), poly(*den))
    assert gf.coefficient(n) == gf.series(n)[n]



def _terms_read_by_the_tail(monkeypatch):
    # how many terms each tail of _halve reads from expand, n + 1 for the n
    # it stopped at, and the lengths of the rows it hands over
    reads, rows = [], []

    def counted(num, den):
        reads.append(0)
        rows.append((len(num), len(den)))
        for c in expand(num, den):
            reads[-1] += 1
            yield c

    monkeypatch.setattr(polyring, "expand", counted)
    return reads, rows


@pytest.mark.parametrize("seed", range(12))
def test_the_halving_and_its_tail_agree_on_part_sets(seed, monkeypatch):
    # narrow slots: n < 16 goes straight to the tail, n = 16..40 halves first
    gf = composition_gf(random_partset(random.Random(seed), 12))
    want = gf.series(40)
    reads, rows = _terms_read_by_the_tail(monkeypatch)
    for n in range(41):
        assert gf.coefficient(n) == want[n]
        assert coefficient_mod(gf, n, 10**9 + 7) == want[n] % (10**9 + 7)
        assert reads[-1] == (n + 1 if n < 16 else n // 2 ** (n.bit_length() - 4) + 1)
        assert max(rows[-1]) <= reads[-1]  # N and D come mod x^(n+1)


def _power_rows(rng, k, length):
    # N and D of `length` terms, D(0) = 1, coefficients +-2^j for j <= k,
    # with +-2^k in each row
    sign = lambda: rng.choice((1, -1))
    num = [sign() << k] + [sign() << rng.randint(0, k) for _ in range(length - 1)]
    den = [1, sign() << k] + [sign() << rng.randint(0, k) for _ in range(length - 2)]
    return num, den


@pytest.mark.parametrize("length", (2, 3, 6, 11))
def test_wide_slots_halve_down_to_n_below_4(length, monkeypatch):
    # 2^k in k + 1 bits packs into (k + 1) // 8 + 1 bytes: below TAIL_BYTES
    # the tail takes n < 16 as it comes, from TAIL_BYTES on n halves below 4
    rng = random.Random(length)
    edge = 8 * polyring.TAIL_BYTES - 9  # the least k that packs into TAIL_BYTES
    for k in (edge - 1, edge, 20_000):
        gf = RationalGF(*map(IntPolynomial, _power_rows(rng, k, length)))
        want = gf.series(20)
        reads, rows = _terms_read_by_the_tail(monkeypatch)
        for n in range(21):
            assert gf.coefficient(n) == want[n]
            assert coefficient_mod(gf, n, 2**61 - 1) == want[n] % (2**61 - 1)
            assert max(rows[-1]) <= reads[-1]
            if 4 <= n < 16:
                assert reads[-1] == (n + 1 if k < edge else n // 2 ** (n.bit_length() - 2) + 1)


def test_n_0_and_a_zero_numerator_through_the_tail():
    for num, den in _power_rows(random.Random(0), 20_000, 5), ([5, -3], [1, -1, -1]):
        assert RationalGF(IntPolynomial(num), IntPolynomial(den)).coefficient(0) == num[0]
        zero = RationalGF(IntPolynomial(), IntPolynomial(den))
        assert [zero.coefficient(n) for n in (0, 1, 3, 15, 16, 17, 100)] == [0] * 7


def test_an_empty_numerator_at_any_n_never_reaches_the_tail(monkeypatch):
    # N mod x^(n+1) = 0 is c_n = 0 at once, whether N starts empty or the
    # halving empties it (1/1 at odd n, the set with no parts) while n is
    # still huge: the tail would read n + 1 zeros off expand
    def unread(num, den):
        raise AssertionError("expand reached with an empty numerator")
        yield

    monkeypatch.setattr(polyring, "expand", unread)
    one = RationalGF(ONE, ONE)
    assert [one.coefficient(n) for n in (17, 2**61 + 1, 10**18 + 1)] == [0] * 3
    assert count(parse_setspec("set:"), 10**18 + 1) == 0
    for den in ([1, -1, -1], [1] + [-1] * 40, [1, -(2**20000)]):
        zero = RationalGF(IntPolynomial(), IntPolynomial(den))
        assert [zero.coefficient(n) for n in (0, 20, 10**12, 2**64)] == [0] * 4


WORST_MODULI = (2, 3, 97, 2**8 - 1, 2**7, 2**32 - 1, 2**31, 2**61 - 1, 2**64, 2**128 - 159, 10**40 + 1)
# across the bit-length boundaries of len(den) in 1..300
WORST_LENGTHS = (1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300)


def test_coefficient_mod_at_its_worst_case_slots():
    # Residues m - 1 fill the products' slots the most.  With De and Do all
    # m - 1 past De(0) = 1, De^2 + y(top - Do^2) holds both halves' largest
    # products; with Do all 0 the mirror m - Do is m in every slot and top -
    # Do^2 is top, so a D slot nears size * m * (m - 1) without carrying;
    # with De = 1 and Do all m - 1, Do^2 is largest and top - Do^2 smallest,
    # floor(size/2) * (m - 1), in the middle slot.  Numerators of both
    # parities run longer than den.  The exact reference takes -1 for m - 1,
    # which keeps it small and gives the same residues.
    for size in WORST_LENGTHS:
        dens = (
            [1] + [-1] * (size - 1),
            [1] + [-(i % 2 == 0) for i in range(1, size)],
            [1] + [-(i % 2) for i in range(1, size)],
        )
        for den in dens:
            for num in ([-1], [-1] * (size + 5), [-1] * (size + 6)):
                gf = RationalGF(poly(*num), poly(*den))
                j = size.bit_length()
                for n in {0, 1, 2, 31, 32, 2**j - 1, 2**j}:
                    want = gf.coefficient(n)
                    for m in WORST_MODULI:
                        residues = RationalGF(poly(*(c % m for c in num)), poly(*(c % m for c in den)))
                        assert coefficient_mod(residues, n, m) == want % m, (size, n, m)


@st.composite
def halving_inputs(draw):
    # (num, den, n): den of each length parity, its odd half all zero or
    # empty (D = 1) too, numerators up to three times as long as den, and n
    # from 0 to 3 * len(den); nonzero last coefficients keep the lengths
    last = st.integers(-9, 9).filter(bool)
    size = draw(st.integers(1, 12))
    middle = st.lists(st.integers(-9, 9), min_size=max(size - 2, 0), max_size=max(size - 2, 0))
    den = [1, *draw(middle), draw(last)][:size]
    if draw(st.booleans()):
        den[1::2] = [0] * (size // 2)
    num = draw(st.lists(st.integers(-9, 9), max_size=3 * size))
    num += [draw(last)] * draw(st.integers(0, 1))
    return num, den, draw(st.integers(0, 3 * size))


@given(halving_inputs(), st.sampled_from((2, 3, 97, 2**61 - 1, 2**128 - 159)))
@example(([3, -1, 2, 5], [1], 3), 97)  # D = 1: Do is empty
@example(([3, -1, 2, 5, 7], [1], 4), 2)
@example(([], [1, -1], 3), 97)  # N = 0
@example(([2], [1, 0, -1, 0, -3], 7), 97)  # an all-zero odd half
@example(([1] * 10, [1, -1, -1], 9), 2**61 - 1)  # N longer than D
@example(([1] * 9, [1, -1, -1, 2], 12), 3)
@settings(max_examples=300, deadline=None)
def test_both_codecs_split_every_parity(args, m):
    num, den, n = args
    gf = RationalGF(poly(*num), poly(*den))
    want = gf.series(n)[n]
    assert gf.coefficient(n) == want
    assert coefficient_mod(gf, n, m) == want % m


def test_residue_slots_are_never_wider_than_the_signed_ones(monkeypatch):
    # the width the packed [N | D] is split at into its even and odd
    # slots is at most the width _halve pads the exact slots to for
    # coefficients of bitlen(m) bits and the same len(den), (2 * bitlen(m)
    # + bitlen(len(den)) + 8) // 8, and it does not change from step to
    # step; _halve splits through _slicer too, but only coefficient_mod
    # runs here
    widths = []

    def recording(count, width):
        widths.append(width)
        return slicer(count, width)

    slicer = polyring._slicer
    monkeypatch.setattr(polyring, "_slicer", recording)
    for size in WORST_LENGTHS:
        for m in WORST_MODULI:
            widths.clear()
            gf = RationalGF(ONE, poly(1, *([m - 1] * (size - 1))))
            coefficient_mod(gf, 1000, m)
            assert widths and len(set(widths)) == 1
            assert widths[0] <= (2 * m.bit_length() + size.bit_length() + 8) // 8


@pytest.mark.parametrize("m", WORST_MODULI + (5, 2**16 + 1, 2**127 - 1))
def test_barrett_rounds_keep_their_bounds(m):
    # every round's hi * mu fits a slot and leaves at most the next top,
    # at most two rounds bring the top below 3m, and `subs` conditional
    # subtractions then give the residue; x runs over the worst values
    rng = random.Random(m)
    for size in (*WORST_LENGTHS, 5000, 2**20 - 1, 2**20, 2**31):
        top = size * m * (m - 1)
        bits = 8 * ((size * m * m).bit_length() // 8 + 1)
        rounds, subs = _barrett(m, top, bits)
        assert len(rounds) <= 2 and subs <= 2
        for x in {top, top - 1, top // 2, m, m - 1, 0, *(rng.randrange(top + 1) for _ in range(50))}:
            want, bound = x % m, top
            for s, mu, t in rounds:
                hi = x >> s
                assert hi * mu < 2**bits
                x -= (hi * mu >> t) * m
                bound = (1 << s) - 1 + m + ((bound >> s) * ((1 << s + t) - m * mu) >> t)
                assert 0 <= x <= bound
            for _ in range(subs):
                x -= m * (x >= m)
            assert x == want


def test_exact_term_at_1e5_frozen():
    gf = composition_gf(parse_setspec("not:mod:3:0"))
    value = count(parse_setspec("not:mod:3:0"), 10**5)
    assert value.bit_length() == 87914
    for m in (2**61 - 1, 10**9 + 7):
        assert value % m == coefficient_mod(gf, 10**5, m)


@given(
    coeff_lists,
    st.lists(st.integers(-9, 9), max_size=7),
    st.lists(st.integers(-9, 9), max_size=7),
    st.integers(1, 64),
)
@settings(max_examples=150, deadline=None)
def test_split_expander_matches_the_joined_denominator(num, low, high, shift):
    # num / (low - 2^shift * high) with low(0) = 1 and high(0) = 0
    low, high = poly(1, *low), poly(0, *high)
    joined = RationalGF(poly(*num), low - high * (1 << shift))
    split = expand(poly(*num).coeffs, low.coeffs, high.coeffs, shift)
    assert tuple(islice(split, 40)) == joined.series(39)
    assert joined.series(39)[-1] == joined.coefficient(39)


def naive_expand(num, low, high, shift, count):
    # c_n = num_n + sum_{i>=1} (2^shift * high_i - low_i) c_(n-i), every
    # tap of the whole history multiplied in, zeros included
    tap = lambda cs, i: cs[i] if i < len(cs) else 0
    c = []
    for n in range(count):
        c.append(tap(num, n) + sum(((tap(high, i) << shift) - tap(low, i)) * c[n - i] for i in range(1, n + 1)))
    return c


# sparse rows of +1/-1 taps, mixed rows, and rows of mostly non-unit taps
tap_rows = st.one_of(
    st.lists(st.sampled_from((0, 0, 0, 1, -1)), max_size=12),
    st.lists(st.sampled_from((0, 0, 1, -1, 2, -3)), max_size=12),
    st.lists(st.sampled_from((2, -3, 5, -1, 0)), max_size=12),
)


@given(coeff_lists, tap_rows, st.one_of(st.just([]), tap_rows), st.integers(0, 64))
@example([1, 2], [], [], 0)  # size 0: the terms are num's
@example([1], [-2, 0, 0, 0, 1], [], 0)  # 1 - 2x + x^5
@example([1], [], [0, 0, 1], 7)  # high longer than low
@example([1], [-2], [], 0)  # the size-1 row 1 - 2x, one non-unit tap
# rows whose non-unit taps fill the window, low alone and split
@example([1, 2], [2, -3, 5, 0, -7], [], 0)
@example([4, -1], [-2, 3, 5, -1, 7], [2, -3, 0, 5], 3)
# streamed times 1 - x: 1 - x - x^2 - x^3 - x^4 as 1 - 2x + x^5, and the
# split rows 1 - x^6 and x + ... + x^5 of no part divisible by 6
@example([1, 0, 0, 0, -1], [-1, -1, -1, -1], [], 0)
@example([1, 0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 0, -1], [1, 1, 1, 1, 1], 8)
@example([3, -1, 2], [0, 0, 0, 0, 0, -1], [1, 1, 1, 1, 1], 1)
@example([], [-1, -1], [], 0)  # no numerator: every term is 0
@example([1, 2, 3, 4, 5, 6, 7, 8, 9], [-1], [2], 5)  # numerator longer than the rows
@example([1, -1], [-2, 0, 2], [2, -2], 3)  # +-2 taps in the low and the high row
@example([1], [0, 0, 0, -1], [], 0)  # the first tap lags past the numerator
@settings(max_examples=300, deadline=None)
def test_expander_matches_a_dense_convolution(num, low, high, shift):
    low, high = (1, *low), ((0, *high) if high else ())
    want = naive_expand(num, low, high, shift, 50)
    assert list(islice(expand(num, low, high, shift), 50)) == want


def test_ten_thousand_taps_stay_flat():
    # one lag per tap, all summed by one zip, so the nesting does not grow
    # with the taps (one map per tap, nested, crashes CPython 3.11 at 10^5)
    r = random.Random(7)
    low = [1] + [0] * 20_000
    for i in r.sample(range(1, 20_001), 10_000):
        low[i] = r.choice((1, -1))
    assert _sparser((1,), low)[-1] is False
    assert list(islice(expand((1, 2), low), 300)) == naive_expand((1, 2), low, (), 0, 300)


def test_decimal_zeros_keep_their_sign():
    # -3 * Decimal(0) is Decimal("-0"), which prints as -0: the expander
    # multiplies by |t| and subtracts, so a zero term stays 0
    one, zero, three = Decimal(1), Decimal(0), Decimal(3)
    with localcontext() as ctx:
        ctx.prec = 50
        terms = islice(expand([one], [one, zero, three]), 6)
        assert list(map(str, terms)) == ["1", "0", "-3", "0", "9", "0"]


def test_1357_taps_of_a_reduced_denominator():
    # the dense reduced denominator that recurrence_from_gf names
    A = parse_setspec("mod:840:588,718,809+157,698,877")
    gf = composition_gf(A)
    assert sum(map(bool, gf.den.coeffs[1:])) == 1357
    assert list(islice(gf.terms(), 2001)) == list(dp_count_series(A, 2000))


def test_an_abandoned_expansion_is_freed_without_the_cyclic_gc():
    # the lags and the output hold each other; expand breaks that cycle
    # when it is closed, so its packed rows go with the last reference
    A = parse_setspec("not:ap:3:6")
    length_row(A, 100)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            length_row(A, 100)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    # about 50 kB of rows per expansion would stay without the close
    assert grown < 200_000


def taps(rows):
    num, low, high = rows
    return sum(map(bool, low[1:])) + sum(map(bool, high))


@given(st.integers(0, 10_000), st.sampled_from((6, 12, 24)))
@settings(max_examples=100, deadline=None)
def test_sparser_takes_the_form_with_fewer_taps(seed, max_modulus):
    # the split rows of bylength and the joined ones of series
    num, low, high = length_parts(random_partset(random.Random(seed), max_modulus))
    for rows in ((num, low, high), (num, low - high, IntPolynomial())):
        plain = tuple(p.coeffs for p in rows)
        stepped = tuple((poly(1, -1) * p).coeffs for p in rows)
        *rows, was_stepped = _sparser(*plain)
        got = tuple(IntPolynomial(r).coeffs for r in rows)
        assert got == (stepped if was_stepped else plain)
        assert taps(got) == min(taps(plain), taps(stepped))


def test_sparser_gives_the_lemma_form():
    x = poly(0, 1)

    def joined(spec):
        num, low, high = length_parts(parse_setspec(spec))
        return tuple(map(IntPolynomial, _sparser(num.coeffs, (low - high).coeffs)[:3]))

    # no part divisible by k: 1 - x - ... - x^k, then 1 - 2x + x^(k+1) from k = 3
    assert joined("not:mod:2:0")[1] == 1 - x - x * x
    for k in (3, 4, 5, 6, 10, 5000):
        assert joined(f"not:mod:{k}:0")[1] == 1 - 2 * x + IntPolynomial.monomial(k + 1)
    # parts 1 mod 3: 1 - x - x^3 has fewer taps than (1 - x) times it
    x3 = IntPolynomial.monomial(3)
    assert joined("mod:3:1") == (1 - x3, 1 - x - x3, IntPolynomial())
    plain = tuple(p.coeffs for p in length_parts(parse_setspec("mod:3:1")))
    assert _sparser(*plain) == (*plain, False)
    # parts avoiding a + bN: (1 - x)(1 - x^b) / ((1 - 2x)(1 - x^b) + x^a - x^(a+1)),
    # at y = 1 from b = 7, and in bylength's split rows from b = 8
    for a, b in ((5, 7), (3, 9), (1, 12), (12, 12), (20, 9)):
        xa, xb = IntPolynomial.monomial(a), IntPolynomial.monomial(b)
        lemma = ((1 - x) * (1 - xb), (1 - 2 * x) * (1 - xb) + xa - xa * x)
        assert joined(f"not:ap:{a}:{b}")[:2] == lemma
        if b >= 8:
            plain = [p.coeffs for p in length_parts(parse_setspec(f"not:ap:{a}:{b}"))]
            num, low, high = map(IntPolynomial, _sparser(*plain)[:3])
            assert (num, low - high) == lemma
            want = naive_expand(*plain, 8, 60)
            assert list(islice(expand(*plain, 8), 60)) == want


@pytest.mark.parametrize(
    "num, low, high, shift",
    [
        ((1, 2), (1,), (), 0),  # size 0: RationalGF(1 + 2x, 1)
        ((1,), (1,) + (0,) * 49 + (-1,), (), 0),  # 1 / (1 - x^50): sparse
        ((1,), (1, 2, 2, 1), (), 0),  # 1 / ((1 + x)(1 + x + x^2)): one dense row
        ((1,), (1,), (0, 0, -1), 0),  # split, high only
    ],
)
def test_expander_holds_a_window_not_the_history(num, low, high, shift):
    # every term is a small cached int, so only the history takes memory:
    # 5 * 10^4 terms would take 400 kB of list if it were all kept
    terms = expand(num, low, high, shift)
    tracemalloc.start()
    try:
        for _ in islice(terms, 50_000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_constant_denominator_streams_its_numerator():
    terms = RationalGF(IntPolynomial((1, 2)), 1).terms()
    assert list(islice(terms, 5)) == [1, 2, 0, 0, 0]


def test_split_expander_rejects_a_bad_constant_term():
    with pytest.raises(ValueError):
        next(expand((1,), (2, 1)))
    with pytest.raises(ValueError):
        next(expand((1,), (1,), (1, 1), 8))


def test_coefficient_mod_rejects_bad_arguments():
    gf = RationalGF(ONE, poly(1, -1, -1))
    assert coefficient_mod(gf, 10, 1000) == 89
    with pytest.raises(ValueError):
        coefficient_mod(gf, -1, 1000)
    with pytest.raises(ValueError):
        coefficient_mod(gf, 10, 1)
    with pytest.raises(ValueError):
        gf.coefficient(-1)


@given(coeff_lists, coeff_lists)
def test_mul_commutes(a, b):
    pa, pb = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
    assert (pa * pb).coeffs == (pb * pa).coeffs


@given(coeff_lists, coeff_lists, coeff_lists)
def test_mul_associates_and_distributes(a, b, c):
    pa, pb, pc = (IntPolynomial(tuple(t)) for t in (a, b, c))
    assert ((pa * pb) * pc).coeffs == (pa * (pb * pc)).coeffs
    assert (pa * (pb + pc)).coeffs == (pa * pb + pa * pc).coeffs


@given(coeff_lists, st.lists(st.integers(-9, 9), min_size=1, max_size=6))
def test_exact_division_after_gcd(a, b):
    pa = IntPolynomial(tuple(a))
    pb = IntPolynomial(tuple(b))
    prod = pa * pb
    if pb.degree < 0:
        return
    g = poly_gcd(prod, pb)
    # pb divides the product, so the gcd has at least pb's degree
    assert g.degree >= pb.degree or prod.degree < 0


divisors = st.builds(
    lambda cs, lead: IntPolynomial(tuple(cs) + (lead,)),
    st.lists(st.integers(-9, 9), max_size=5),
    st.sampled_from([1, -1, 2, -2, 3, -3, 7]),
)


@given(coeff_lists, divisors)
def test_divmod_fractions_divides(p, d):
    p = IntPolynomial(tuple(p))
    q, r = divmod_fractions(p, d)
    assert len(r) <= d.degree  # deg r < deg d
    assert (not q or q[-1]) and (not r or r[-1])  # trimmed
    scale = math.lcm(*(c.denominator for c in q + r))
    qs, rs = (IntPolynomial(int(c * scale) for c in t) for t in (q, r))
    assert qs * d + rs == p * scale


@given(coeff_lists, divisors)
def test_pseudo_divmod_scales_only_when_needed(p, d):
    p = IntPolynomial(tuple(p))
    q, r, k = _pseudo_divmod(p, d)
    assert d.coeffs[-1] ** k * p == q * d + r and r.degree < d.degree
    # k = 0 exactly when the rational quotient is integral
    quot, _ = divmod_fractions(p, d)
    assert (k == 0) == all(c.denominator == 1 for c in quot)
