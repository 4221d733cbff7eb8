"""Composition counting through rational generating functions.

A composition of n is an ordered tuple of parts summing to n.  If the
parts are drawn from a set A with indicator series S(x) = sum_{a in A}
x^a, the compositions with exactly m parts are generated by S(x)^m, and
summing the geometric series over m gives the counting function's
generating function

    C(x) = 1 / (1 - S(x)),   C(0) = 1 for the empty composition.

For eventually periodic A the indicator series is rational, so C is a
ratio of integer polynomials and the counts satisfy a fixed-depth linear
recurrence.  C(x, y) = 1/(1 - y*S(x)) also counts by number of parts
(length_parts returns it with y kept apart); composition_bits bounds
every count, for the CLI's refusals and the packed length rows.
The slices S(x)^m by convolution live in the oracle module.
"""

from __future__ import annotations

from itertools import accumulate, islice
from operator import add

from .polyring import IntPolynomial, RationalGF, _step, expand


def length_parts(A):
    """(N, L, H) with C(x, y) = N / (L - y*H), cleared of the series
    form: with S = P + Q/(1 - x^k) it is N = L = 1 - x^k and H = (1 -
    x^k)P + Q, and P(0) = Q(0) = 0 makes L(0) = 1 and H(0) = 0.
    polyring.expand streams it, times 1 - x where that is sparser, and
    composition_gf reduces it at y = 1."""
    P, Q, k = A.series_form()
    cyc = IntPolynomial((1,) + (0,) * (k - 1) + (-1,))  # 1 - x^k
    return cyc, cyc, IntPolynomial(_step(list(P.coeffs) + [0] * k, k)) + Q


def _unstep(p, e):
    # the coefficients of p / (1 - x^e) for a multiple p of 1 - x^e: a
    # running sum along each residue class mod e, whose top e terms are 0
    q = list(p)
    for j in range(min(e, len(q) - e)):
        q[j::e] = accumulate(q[j::e])
    return q[: len(q) - e]


def _fold(p, d):
    # p mod x^d - 1 for len(p) a multiple of d: its length-d chunks added,
    # one list per chunk, or each slot's residue class summed, one strided
    # slice per slot.  The sums cost less per term and more per slot; on
    # CPython 3.11 they win past about 12 chunks, for d = 30 to 10^4 alike
    # (d = 10^4: the adds take 0.17x the time of the sums at 2 chunks,
    # 0.92x at 12 and 1.55x at 32; d = 1 and 10^6 terms: 430 against 19 ms)
    if len(p) > 12 * d:
        return [sum(p[j::d]) for j in range(d)]
    out = p[:d]
    for at in range(d, len(p), d):
        out = list(map(add, out, p[at : at + d]))
    return out


def _folds(den, k, primes):
    # (d, den mod x^d - 1) for every d | k, primes those of k: d comes from
    # the fold of d*p, p the smallest prime of k/d, so all folds cost about
    # sigma(k) additions, and only the folds of one chain k, k/p, ... are
    # alive at a time
    primes = sorted(primes, reverse=True)

    def walk(d, fold, i):
        yield d, fold
        for j in range(i, len(primes)):
            if d % primes[j] == 0:
                yield from walk(d // primes[j], _fold(fold, d // primes[j]), j)

    return walk(k, _fold(den + [0] * (-len(den) % k), k), 0)


def composition_bits(A, n):
    """An upper bound on the bit length of c(n), nondecreasing in n.

    With a the smallest part, each block of a consecutive cut positions
    holds at most one cut, so c(n) <= (a + 1)^ceil((n - 1) / a), and
    log2(a + 1) <= bitlen(a); for a = 1 this is c(n) <= 2^(n - 1).
    """
    a = A.least()
    if a is None or n == 0:
        return 1  # c(0) = 1, and with no parts c(n) = 0 after it
    return -(-(n - 1) // a) * a.bit_length() + 1


def composition_gf(A):
    """C(x) = 1/(1 - S(x)), the y = 1 view of length_parts, reduced:
    with no common factor left, every denominator root is a genuine
    pole.  As 1 - x^k = -prod_{d|k} Phi_d, the gcd is the product of the
    cyclotomic Phi_d that divide the denominator D: a sieve, not a
    Euclid.  Phi_d | D when (D mod x^d - 1) * prod_{p|d prime}
    (1 - x^(d/p)) = 0 mod x^d - 1, as that product vanishes at every
    d-th root of unity but the primitive ones; each fold adds up the
    chunks of the fold for a multiple of d (_folds).  Dividing by Phi_d =
    prod_{e|d} (1 - x^e)^mu(d/e) keeps D(0) = 1."""
    num, low, high = length_parts(A)
    num, den = list(num.coeffs), list((low - high).coeffs)
    k = len(num) - 1
    divisors = [d for d in range(1, k + 1) if k % d == 0]
    primes = [p for p in divisors[1:] if all(p % q for q in divisors[1:] if q < p)]
    power = {}  # the gcd is prod_e (1 - x^e)^power[e], up to sign
    for d, fold in _folds(den, k, primes):
        ps = [p for p in primes if d % p == 0]
        for p in ps:
            fold = _step(fold, d // p)
        if not any(fold):
            factors = [(d, 1)]  # (e, mu(d/e)) for the squarefree d/e
            for p in ps:
                factors += [(e // p, -m) for e, m in factors]
            for e, m in factors:
                power[e] = power.get(e, 0) + m
    # multiply first, so that every division by 1 - x^e is exact
    for e, m in sorted(power.items(), key=lambda em: em[1]):
        for _ in range(abs(m)):
            num, den = (_unstep(p, e) if m > 0 else _step(p + [0] * e, e) for p in (num, den))
    return RationalGF(IntPolynomial(num), IntPolynomial(den))


def composition_terms(A, number=int):
    """count(A, 0), count(A, 1), ... without end, streamed by
    polyring.expand from length_parts at y = 1, or from (1 - x) times
    it where that is sparser: a few additions of earlier terms each, in
    C iterators.  No gcd is taken: a common factor changes no term.  The
    terms are of the type `number`, which needs only + - and *: the CLI
    prints exact decimal.Decimal terms."""
    num, low, high = length_parts(A)
    return expand(*([number(c) for c in p.coeffs] for p in (num, low - high)))


def composition_series(A, order):
    """count(A, n) for n = 0..order, off composition_terms."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return tuple(islice(composition_terms(A), order + 1))


def count(A, n):
    """c_A(n): the number of compositions of n with all parts in A,
    c_A(0) = 1, by RationalGF.coefficient on composition_gf(A), as the
    CLI's count and nth do; the plain DP form lives in the oracle module
    as an independent cross-check."""
    return composition_gf(A).coefficient(n)
