"""C-finite recurrences: the JSON exchange format for count sequences.

A reduced generating function N(x)/D(x) with D = 1 - d_1 x - ... - d_k x^k
satisfies, by comparing coefficients of x^n,

    f(n) = d_1 f(n-1) + ... + d_k f(n-k) + [x^n] N(x),

so beyond deg N the sequence is homogeneous.  LinearRecurrence stores the
coefficients d_i, the numerator corrections, and a seed of initial terms
long enough to cover both the order and every correction, and writes
them as JSON with to_dict / from_dict.  It evaluates nothing: to_gf()
turns it back into N/D, with N read off the seed, and its terms are read
off that RationalGF (series, coefficient, and polyring.coefficient_mod
for residues at huge n).
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal
from itertools import accumulate, islice, repeat
from operator import add, mul

from .polyring import IntPolynomial, RationalGF, _sparser


class LinearRecurrence(namedtuple("LinearRecurrence", "order coeffs corrections initial_terms")):
    """order: recurrence depth k, coeffs: (d_1, .., d_k) with d_k != 0.

    corrections: sparse ((index, value), ...) pairs from the numerator,
    () by default; index 0 is allowed on directly built instances,
    recurrence_from_gf carries f(0) in the seed instead.  initial_terms:
    f(0)..f(k') with k' >= max(order, highest correction index), (1,) by
    default; these seeds are authoritative, the recurrence only takes
    over beyond them.  The family constructors below bake their seed
    values in with no corrections, so replay_consistent is False for
    them whenever a boundary adjustment got folded into the seed.
    The order, the coeffs and the corrections must be ints, not bools: a
    float or a Decimal, even an integral one, raises ValueError.  A seed
    term must be an int, not a bool, or a Decimal, the exact terms the CLI
    streams; its digits are taken as given.

    This is the exchange format (to_dict / from_dict); its terms are
    read off the generating function to_gf().
    """

    __slots__ = ()

    def __new__(cls, order, coeffs, corrections=(), initial_terms=(1,)):
        k = _integer("order", order)
        coeffs = tuple(_integer("coeffs", c) for c in coeffs)
        corrections = tuple((_integer("corrections", i), _integer("corrections", v)) for i, v in corrections)
        initial = tuple(t if isinstance(t, Decimal) else _integer("initial", t) for t in initial_terms)
        if k < 0 or len(coeffs) != k:
            raise ValueError("coeffs must list exactly `order` values")
        if k >= 1 and coeffs[-1] == 0:
            raise ValueError("d_k must be nonzero (true order)")
        indices = [i for i, _ in corrections]
        if any(i < 0 for i in indices) or len(set(indices)) != len(indices):
            raise ValueError("correction indices must be distinct and nonnegative")
        top = max([k] + [i for i in indices])
        if len(initial) < top + 1:
            raise ValueError("initial_terms must cover max(order, corrections)")
        return super().__new__(cls, k, coeffs, corrections, initial)

    # -- generating function -----------------------------------------------

    def to_gf(self):
        """N/D with D = 1 - d_1 x - ... - d_k x^k, N = D * seed mod x^len(seed).

        N comes from the seed, not the corrections, because the family
        constructors fold their boundary terms into their seeds.  The
        seed covers the order, so the series repeats the seed and then
        follows the homogeneous recurrence.  Only the len(seed) kept
        coefficients of the product are formed, one pass over the seed
        per nonzero tap of D, or of (1 - x) D where polyring._sparser
        finds that sparser, as expand and the closed forms step; then
        the running sum takes the stepped product back to D * seed.
        """
        den = (1,) + tuple(-d for d in self.coeffs)
        seed = self.initial_terms
        _, row, _, stepped = _sparser((), den)
        num = [0] * len(seed)
        for e, c in enumerate(row[: len(seed)]):
            if c:
                num[e:] = map(add, num[e:], map(mul, repeat(c), seed))
        return RationalGF(IntPolynomial(accumulate(num) if stepped else num), IntPolynomial(den))

    def replay_consistent(self):
        """True when every seed term past f(0) is reproduced by the
        recurrence plus corrections (with f(j) = 0 for j < 0), that is
        when to_gf()'s numerator matches the corrections from x^1 on.
        f(0) is the anchor: its generating function counterpart is the
        numerator constant, which lives in the seed rather than the
        corrections.  Holds for recurrence_from_gf outputs by
        construction; the theorem-shaped constructors fail it on
        purpose, since their seeds absorb the boundary adjustment that
        a GF correction would otherwise carry.
        """
        num = self.to_gf().num
        corr = dict(self.corrections)
        return all(num[i] == corr.get(i, 0) for i in range(1, len(self.initial_terms)))

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        """JSON-ready dict: {"order", "coeffs", "corrections", "initial"}."""
        return {
            "order": self.order,
            "coeffs": list(self.coeffs),
            "corrections": [[i, v] for i, v in self.corrections],
            "initial": list(self.initial_terms),
        }

    @classmethod
    def from_dict(cls, data):
        """The inverse of to_dict.  "coeffs" and "initial" must be JSON
        arrays, "corrections" an array of [index, value] pairs, and the
        values integers, which the constructor checks.  A float, even an
        integral one (a count above 2^53 is already rounded in a float),
        a bool or a string where an integer or an array belongs raises
        ValueError, as does anything but an object or an object missing
        a key, naming the key that is wrong."""
        if not isinstance(data, dict):
            raise ValueError(f"malformed recurrence dict: expected a JSON object, not {type(data).__name__}")
        missing = [repr(key) for key in ("order", "coeffs", "corrections", "initial") if key not in data]
        if missing:
            keys = "keys" if len(missing) > 1 else "key"
            raise ValueError(f"malformed recurrence dict: missing {keys} {', '.join(missing)}")
        for key in ("coeffs", "corrections", "initial"):
            if not isinstance(data[key], list):
                kind = type(data[key]).__name__
                raise ValueError(f"malformed recurrence dict: {key!r} must be an array, not {kind}")
        if not all(isinstance(pair, list) and len(pair) == 2 for pair in data["corrections"]):
            raise ValueError("malformed recurrence dict: 'corrections' must hold [index, value] pairs")
        try:
            return cls(data["order"], data["coeffs"], data["corrections"], data["initial"])
        except ValueError as exc:
            raise ValueError(f"malformed recurrence dict: {exc}") from None


def _integer(key, value):
    # value when it is an int and not a bool: a float or a Decimal, even an
    # integral one, is refused rather than truncated
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} in {key!r} is not an integer")
    return value


def recurrence_from_gf(gf, terms=None):
    """Recurrence view of a RationalGF.

    With den = 1 - sum d_i x^i the coefficients are read off directly;
    corrections are the nonzero numerator coefficients at index >= 1 and
    f(0) = num(0).  The seed is the series through max(order, deg num),
    so the tail is homogeneous, read off ``terms`` when given (any
    stream of gf's series, such as genfun.composition_terms) and off
    gf.terms() otherwise.  A reduced denominator whose gcd held 1 + x
    alternates its signs, and stays dense after a step by 1 - x where
    the stream is sparse: 1357 taps against 10 for the order-1715
    mod:840:588,718,809+157,698,877.
    A constant denominator yields an order-0 recurrence whose terms are
    just the numerator coefficients.
    """
    num, den = gf.num, gf.den
    k = den.degree  # den(0) = 1, so k >= 0 and d_k != 0 when k >= 1
    coeffs = tuple(-den[i] for i in range(1, k + 1))
    corrections = tuple((i, num[i]) for i in range(1, num.degree + 1) if num[i])
    seed = tuple(islice(gf.terms() if terms is None else terms, max(k, num.degree, 0) + 1))
    return LinearRecurrence(k, coeffs, corrections, seed)


def no_multiples_recurrence(k):
    """Stated sequence for counts of compositions with no part divisible by k.

    Seeds f(0) = 1, f(j) = 2^(j-1) for 1 <= j <= k-1, f(k) = 2^(k-1) - 1,
    then the depth-k sum f(n) = f(n-1) + ... + f(n-k).  Built directly
    from those published numbers, not from the generating function, so
    the two routes can be cross-checked independently.  k = 2 is the
    Fibonacci case (odd parts), k = 3 and 4 the Tribonacci and
    Tetranacci style sequences.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    seed = [1] + [2 ** (j - 1) for j in range(1, k)] + [2 ** (k - 1) - 1]
    return LinearRecurrence(k, (1,) * k, (), tuple(seed))


def avoid_residue_recurrence(k, m):
    """Recurrence for counts of compositions avoiding parts = m mod k.

    Requires 1 <= m < k.  The recurrence sums f(n-i) for i = 1..k-1
    skipping i = m, plus 2 f(n-k).  Seeds come from coefficient
    comparison on (1 - x^k) / (1 - sum_{i<k, i!=m} x^i - 2 x^k): f(0)
    is 1, f(j) for j < k replays the sum, and f(k) picks up an extra
    -1 from the numerator.  Those seeds equal the true counts for
    every m, including m = 1.

    The closed-form seed expression 2^(j-1) - 2^(j-m) that is often
    attached to this family is NOT used here because it overcounts for
    j >= m + 2 (and collapses to all zeros at m = 1).  It is kept in
    avoid_residue_seed_formula so the verification reports can flag
    exactly where it goes wrong instead of silently correcting it.
    """
    if not (isinstance(k, int) and isinstance(m, int) and 1 <= m < k):
        raise ValueError("need integers 1 <= m < k")
    cs = [1] * k
    cs[m - 1] = 0
    cs[k - 1] = 2
    den = IntPolynomial((1,) + tuple(-c for c in cs))
    seed = RationalGF(1 - IntPolynomial.monomial(k), den).series(k)
    return LinearRecurrence(k, tuple(cs), (), seed)


def avoid_residue_seed_formula(k, m):
    """Closed-form seed candidates for the avoid-residue family.

    Returns (f(0), ..., f(k)) with f(0) = 1, f(j) = 2^(j-1) for j < m
    and f(j) = 2^(j-1) - 2^(j-m) for m <= j <= k.  The subtracted term
    pretends that compositions of j with at least one part equal to m
    number 2^(j-m); that holds only for j <= m + 1 (plus the lucky
    coincidence m = 2, j = 4), so the formula overcounts from
    j = m + 2 on and evaluates to all zeros when m = 1.  Exposed so
    verification can compare it against true counts; not used to seed
    avoid_residue_recurrence.
    """
    if not (isinstance(k, int) and isinstance(m, int) and 1 <= m < k):
        raise ValueError("need integers 1 <= m < k")
    vals = [1]
    for j in range(1, k + 1):
        vals.append(2 ** (j - 1) if j < m else 2 ** (j - 1) - 2 ** (j - m))
    return tuple(vals)
