"""Exact arithmetic on integer polynomials and rational generating functions.

Coefficients are plain Python integers indexed by exponent, so everything
here is arbitrary precision and exact.  Rational functions are stored as
numerator/denominator pairs whose denominator has constant term 1, which
is the shape every composition generating function takes and guarantees
the power series expansion is well defined.

One integer long division serves every quotient and remainder:
_pseudo_divmod finds lc(d)^k * p = q*d + r, for the primitive-part
Euclid of poly_gcd and for divmod_fractions, which divides q and r by
lc(d)^k.

A single coefficient c_n, exact (RationalGF.coefficient) or mod m
(coefficient_mod), comes from one Bostan-Mori halving kernel that
multiplies the even and odd halves of N and D, each packed into one big
integer (Kronecker substitution), so int multiplication does the
convolution.  Either way N and D are packed once, as one integer
[N | D], and stay packed: over Z each slot holds value + half and is
padded in front to the products' width every step, and mod m the
residues keep one width, every slot reduced at once.  Over Z the last
steps would square D at about the width of c_n to save a few terms, so
the halving stops once n is small (TAIL_BYTES) and hands the N and D
left to the one series expander, expand, which reads c_n off them.
expand streams c_0, c_1, ... by the linear recurrence, for series and
for the packed length rows, whose denominator it keeps split as
low - 2^shift * high so that multiplying by 2^shift is a shift.  It
reads only the nonzero taps of the sparser of its rows and (1 - x)
times them, the step of the paper's lemma (_sparser, which
LinearRecurrence.to_gf and the closed forms also take), and sums each
term in C iterators from lagged tee copies of its own output, a +-1 or
+-2 tap as one or two plain additions, so no Python code runs per tap.
"""

from __future__ import annotations

import math
import struct
from itertools import chain, islice, repeat, tee
from operator import add, lshift, mul, sub

# The exact halving reads c_n off the remaining N / D with expand once n
# < 16, or once n < 4 where the slots are this many bytes or more: each
# step squares D at the slot width, which nears that of c_n in the last
# steps, while expand's cost grows as n times its taps.  On a 2-core host
# with CPython 3.11, stopping at 16 rather than 4 is 1.3-1.5x faster on
# slots of 100 B and 1.1-1.3x on slots of 1,000-1,500 B (`not:mod:3:0`,
# `not:mod:12:0` and `mod:7:1,3` at n = 10^4 to 1.6 * 10^5);
# `not:mod:3:0`, with the fewest taps, ties at 1,800 B and is 1.3x slower
# at 3,600 B (26 against 20 ms), where `not:mod:12:0` still gains 10 %.
TAIL_BYTES = 2048


class IntPolynomial:
    """Dense integer polynomial, immutable value type.

    ``coeffs`` is the trimmed coefficient tuple with coeffs[i] the
    coefficient of x^i.  The zero polynomial has an empty tuple and
    degree -1 (the conventional stand-in for "minus infinity": every
    comparison the algorithms below make does the right thing with it).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, exponent, coefficient=1):
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((0,) * exponent + (coefficient,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return IntPolynomial(-c for c in self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(other * c for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate by Horner's rule; works for any number type with + and *."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def __repr__(self):
        return f"IntPolynomial({self.coeffs!r})"

    def __str__(self):
        """Ascending-power display: ``1 - x^2 - 2*x^3``."""
        if not self.coeffs:
            return "0"
        pieces = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{e}" if mag == 1 else f"{mag}*x^{e}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, first = pieces[0]
        out = ("-" if sign == "-" else "") + first
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out


ONE = IntPolynomial((1,))


def primitive_part(p):
    """p divided by its content, sign-fixed to a positive leading coefficient."""
    if not p:
        return p
    c = math.gcd(*p.coeffs)
    if p.coeffs[-1] < 0:
        c = -c
    return IntPolynomial(a // c for a in p.coeffs)


def _pseudo_divmod(p, d):
    # (q, r, k) with lc(d)^k * p = q*d + r and deg r < deg d.  A step
    # scales everything by lc(d) only where lc(d) does not divide the
    # leading remainder coefficient, so k = 0 exactly when the quotient
    # over the rationals is integral.
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    dd = d.degree
    lead = d.coeffs[-1]
    rem = list(p.coeffs)
    quot = [0] * max(len(rem) - dd, 0)
    k = 0
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + dd]
        if c % lead:
            rem = [lead * a for a in rem]
            quot = [lead * a for a in quot]
            c *= lead
            k += 1
        qi = quot[i] = c // lead
        if qi:
            for j, b in enumerate(d.coeffs, i):
                rem[j] -= qi * b
    return IntPolynomial(quot), IntPolynomial(rem), k


def poly_gcd(p, q):
    """Primitive GCD over the integers, positive leading coefficient.

    Returns the zero polynomial only when both inputs are zero; a
    nonzero constant gcd comes back as the constant 1.
    """
    a, b = primitive_part(p), primitive_part(q)
    while b:
        a, b = b, primitive_part(_pseudo_divmod(a, b)[1])
    return a


def divmod_fractions(p, d):
    """(quotient, remainder) of p/d over the rationals.

    Both are returned as tuples of Fraction, index = exponent, trimmed.
    Used for the polynomial part of partial fractions, where the
    quotient is typically the constant 1/2 and not an integer.
    """
    from fractions import Fraction  # only closed forms need it

    q, r, k = _pseudo_divmod(p, d)
    scale = d.coeffs[-1] ** k
    quot = tuple(Fraction(c, scale) for c in q.coeffs)
    return quot, tuple(Fraction(c, scale) for c in r.coeffs)


class RationalGF:
    """Ratio of integer polynomials with denominator constant term 1.

    The constant-term condition makes the series expansion a simple
    convolution recurrence: with den = 1 - sum d_i x^i,

        c_n = num_n + sum_{i>=1} d_i c_{n-i}.

    Construction stays literal to whatever form the caller built, and
    equality is as rational functions, by cross multiplication, so a
    RationalGF is not hashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if isinstance(num, int):
            num = IntPolynomial((num,))
        if isinstance(den, int):
            den = IntPolynomial((den,))
        if den[0] != 1:
            raise ValueError("denominator constant term must be exactly 1")
        self.num = num
        self.den = den

    def terms(self):
        """c_0, c_1, ... without end, by the recurrence above or (1 - x)
        times it: the high = () case of expand."""
        return expand(self.num.coeffs, self.den.coeffs)

    def series(self, order):
        """Truncated expansion c_0..c_order (a tuple of length order+1)."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        return tuple(islice(self.terms(), order + 1))

    def coefficient(self, n):
        """c_n exactly, by Bostan-Mori halving over Z.

        About log2(n) steps of four products of halves of N and D, two of
        them squarings, on [N | D] packed once; coefficient_mod runs the
        same kernel mod m.  The halving stops at n < 16 (n < 4 on slots of
        TAIL_BYTES or more) and expand reads c_n off the N and D left:
        the steps it saves would square D at about the width of c_n.  So
        the cost follows bits(c_n) and den.degree, not n * den.degree as
        streaming terms() does.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        return _halve(list(self.num.coeffs), list(self.den.coeffs), n)

    def __eq__(self, other):
        if not isinstance(other, RationalGF):
            return NotImplemented
        # equality as rational functions, not as representations
        return self.num * other.den == other.num * self.den

    def __repr__(self):
        return f"RationalGF({self.num!r}, {self.den!r})"

    def __str__(self):
        return f"({self.num}) / ({self.den})"


def expand(num, low, high=(), shift=0):
    """c_0, c_1, ... of num / (low - 2^shift * high) without end, for
    coefficient tuples with low[0] = 1 and high[0] = 0, by the recurrence
    of RationalGF with d = 2^shift * high - low.

    The rows are first multiplied by 1 - x when low[1:] and high then
    have fewer nonzero taps (_sparser), the step of the paper's lemma
    (1 - x)(1 - x^b) / ((1 - 2x)(1 - x^b) + x^a - x^(a+1)) for parts
    avoiding a + bN: 1 - x - ... - x^k becomes 1 - 2x + x^(k+1).  Only
    the nonzero taps are read, so such a row costs a few big-integer
    additions per term, not a dot product over the whole window.

    The terms are built from lagged copies of the output itself, all in
    C iterators: the output is tee'd into one copy per unit of tap, and
    c_(n-i) is the copy that starts with i zeros (_lagged_sum).  A tap of
    +-1 or +-2 is one or two lags, any other one lag times |t|, and the
    high row is summed alike and shifted.  The tee holds the terms from
    its slowest copy to its fastest, size = max(deg low, deg high) of
    them, in CPython's blocks of 57: at most about size + 114 terms.

    With high = () it needs only + - * of its values, so the CLI streams
    exact decimal.Decimal values through it for printing, since
    str(Decimal) is linear in the digits.
    """
    if not low or low[0] != 1 or (high and high[0]):
        raise ValueError("need low[0] = 1 and high[0] = 0")
    num, low, high, _ = _sparser(num, low, high)
    # c_n += sum_i t_i c_(n-i) over the taps t_i = -low_i, and 2^shift * high_i
    rows = [(i, -t) for i, t in enumerate(low) if i and t], [(i, t) for i, t in enumerate(high) if t]
    box = []
    fed = _fed(box)
    units = sum(1 if abs(t) > 2 else int(abs(t)) for row in rows for _, t in row)
    terms, *copies = tee(fed, units + 1)
    lags = iter(copies)
    lag = lambda i: chain(repeat(0, i), next(lags))
    step, split = (_lagged_sum(row, lag) for row in rows)
    if split:
        split = map(lshift, split, repeat(shift))
        step = map(add, step, split) if step else split
    step = step or repeat(0)
    # num first, so that map stops at its end without taking a term of step
    box.append(chain(map(add, num, step), step))
    try:
        yield from terms
    finally:
        fed.close()  # breaks the copies' cycle through fed, so refcounting frees them


def _fed(box):
    # the output of expand, box[0] once it is built, read by its own lags
    yield from box[0]


def _lagged_sum(taps, lag):
    # sum_i t_i c_(n-i) as an iterator over n, or None without taps, for the
    # (i, t_i) of taps and lag(i) a new copy of the output i terms late.  A
    # tap of +-1 or +-2 adds one or two lags and any other the lag times
    # |t_i|; the lags of each sign are summed flat, by one zip, so the
    # nesting does not grow with the taps.  Factors are positive and
    # differences taken once, so a Decimal zero never turns into -0.
    sides = [], []
    for i, t in taps:
        side = sides[t < 0]
        if abs(t) > 2:
            side.append(map(mul, repeat(abs(t)), lag(i)))
        else:
            side += [lag(i) for _ in range(int(abs(t)))]
    plus, minus = [
        None if not side else side[0] if len(side) == 1 else map(sum, zip(*side[1:]), side[0])
        for side in sides
    ]
    if minus is None:
        return plus
    return map(sub, plus or repeat(0), minus)


def _step(p, e):
    # the coefficients of (1 - x^e) * p mod x^len(p) - 1, which is the
    # product itself when p ends in e zeros
    return list(map(sub, p, p[-e:] + p[:-e]))


def _sparser(num, low, high=()):
    # the rows, or all three times 1 - x if low[1:] and high then have
    # fewer taps, and whether they were stepped
    stepped = [_step([*p, 0], 1) for p in (num, low, high)]
    taps = lambda low, high: sum(map(bool, low[1:])) + sum(map(bool, high))
    fewer = taps(*stepped[1:]) < taps(low, high)
    return (*stepped, True) if fewer else (num, low, high, False)


def coefficient_mod(gf, n, m):
    """[x^n] of the series of gf, in [0, m), for any modulus m >= 2.

    The halving of RationalGF.coefficient, run on residues mod m that
    stay packed from the first step to the last: each step reduces
    every slot at once with a few whole-integer operations and never
    turns a slot back into an int.  D(0) stays 1, so m need not be prime.
    """
    if n < 0 or m < 2:
        raise ValueError("need n >= 0 and modulus m >= 2")
    num, den = ([c % m for c in p.coeffs[: n + 1]] for p in (gf.num, gf.den))
    return _halve_mod(num, den, n, m)


def _halve(num, den, n):
    # Bostan-Mori halving (arXiv:2008.08822) of coefficient lists over Z
    # with den[0] = 1, the kernel _halve_mod runs on residues.  With
    # D = De(x^2) + x Do(x^2) and N alike, [x^n] N(x)D(-x) / D(x)D(-x) is,
    # in y = x^2, the term of Ne De - y No Do (n even) or No De - Ne Do (n
    # odd) over De^2 - y Do^2: four products of halves, two of them
    # squarings, and nothing computed only to be dropped; halve n and
    # repeat, keeping N and D mod x^(n+1) at the end of every step.
    # [N | D] is packed once and stays packed: slots of value + half,
    # big-endian, from D's top term down to N's constant, so max and min
    # compare them as bytes.  Each step pads the slots in front to the
    # products' width, subtracts half from every slot of the halves, and
    # splits the results back.  Slots only widen: where a truncation or
    # cancellation shrinks the terms they keep their width, which holds
    # the products all the same.  Once n is small (TAIL_BYTES) the slots are
    # unpacked and expand reads c_n off N / D: the steps left would square
    # D at about the width of c_n for a few terms, and D(0) = 1 still.
    # Both rows are already mod x^(n+1), so expand steps no tap it cannot
    # reach, and an empty N, whatever n is left, is c_n = 0 at once.
    num, den = num[: n + 1], den[: n + 1]
    count, size = len(num), len(den)
    width = max(map(abs, chain(num, den))).bit_length() // 8 + 1
    half = 1 << 8 * width - 1
    slots = [(c + half).to_bytes(width, "big") for c in chain(reversed(den), reversed(num))]
    while count and n >= (16 if width < TAIL_BYTES else 4):
        # a product slot holds len(den) products below 2^(2 * bits), plus the sign
        top, low = (int.from_bytes(s, "big") - half for s in (max(slots), min(slots)))
        wide = max(width, (2 * max(top, -low).bit_length() + size.bit_length() + 8) // 8)
        pad, bits = bytes(wide - width), 8 * wide
        zero = pad + half.to_bytes(width, "big")  # a padded slot of value 0
        # each half runs down from its top slot
        ne, no = slots[size + 1 - count % 2 :: 2], slots[size + count % 2 :: 2]
        de, do = slots[1 - size % 2 : size : 2], slots[size % 2 : size : 2]
        ne, no, de, do = [
            int.from_bytes(pad + pad.join(h), "big") - int.from_bytes(zero * len(h), "big")
            for h in (ne, no, de, do)
        ]
        num = no * de - ne * do if n & 1 else ne * de - (no * do << bits)
        den = de * de - (do * do << bits)
        count = (count + size - (n & 1)) // 2
        n >>= 1
        width, half = wide, 1 << bits - 1
        laid = count + size
        both = num + (den << bits * count) + int.from_bytes(half.to_bytes(wide, "big") * laid, "big")
        slots = _slicer(laid, wide)(both.to_bytes(laid * wide, "big"))
        if n < count or n < size:  # keep N and D mod x^(n+1)
            slots = slots[size - min(size, n + 1) : size] + slots[size + count - min(count, n + 1) :]
            count, size = min(count, n + 1), min(size, n + 1)
    if not count:  # N mod x^(n+1) is 0, and so is c_n, however large n is
        return 0
    values = [int.from_bytes(s, "big") - half for s in reversed(slots)]  # N's constant first
    return next(islice(expand(values[:count], values[count:]), n, None))


def _halve_mod(num, den, n, m):
    # The halving on residues in [0, m), packed once into slots of `bits`
    # bits as one integer [N | D] and kept packed; each step slices its
    # bytes into slots (_slicer) and joins every other one into Ne, De, No
    # and Do.  -Do is the mirror m - Do, and -Do^2 is top - Do^2, with
    # floor(size/2) * m * (m - 1), a multiple of m and at least any slot of
    # Do^2, in every slot of top.  So a result slot is at most size * m *
    # (m - 1): slots of more than bit_length(size * m^2) bits never carry,
    # and a whole byte more is at most the exact kernel's width for the
    # same m and len(den).  Barrett rounds (_barrett) bring every slot of
    # the joined results below 3m at once, then SWAR conditional
    # subtractions (a test and a subtraction in every slot at once, off the
    # slot's top bit as a guard) below m.
    num = num or [0]  # slot 0 is N's
    size, count = len(den), len(num)
    width = (size * m * m).bit_length() // 8 + 1
    bits = 8 * width
    rounds, subs = _barrett(m, size * m * (m - 1), bits)
    # N's slots: (count + size) // 2 at most, so never more than max(count, size)
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * (max(count, size) + size), "little")
    rounds = [(s, ones * ((1 << bits - s) - 1), mu, t, ones * ((1 << bits - t) - 1)) for s, mu, t in rounds]
    guard = ones * ((1 << bits - 1) - m)  # r + guard has its top bit set iff r >= m
    both = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in chain(num, den)), "little")
    sized = laid = None
    while n:
        if sized != size:  # size shrinks only once n + 1 < size
            sized, k = size, size // 2
            mirror = m * (ones & (1 << k * bits) - 1)
            top = k * m * (m - 1) * (ones & (1 << max(2 * k - 1, 0) * bits) - 1)
        if laid != count + size:  # settles after a few steps
            laid = count + size
            split = _slicer(laid, width)
        slots = split(both.to_bytes(laid * width, "little"))
        halves = slots[:count:2], slots[count::2], slots[1:count:2], slots[count + 1 :: 2]
        ne, de, no, do = [int.from_bytes(b"".join(h), "little") for h in halves]
        num = no * de + ne * (mirror - do) if n & 1 else ne * de + (no * (mirror - do) << bits)
        count = (count + size - (n & 1)) // 2
        den = de * de + ((top - do * do) << bits) if n > 1 else 0
        n >>= 1
        if n < count or n < size:  # keep N and D mod x^(n+1)
            count, size = min(count, n + 1), min(size, n + 1)
            num, den = num & (1 << count * bits) - 1, den & (1 << size * bits) - 1
        both = num | den << count * bits
        for s, low, mu, t, quotient in rounds:
            both -= ((both >> s & low) * mu >> t & quotient) * m
        for _ in range(subs):
            both -= ((both + guard) >> bits - 1 & ones) * m
    return both & (1 << bits) - 1


def _barrett(m, top, bits):
    # (rounds, subs) that take slots of `bits` bits holding at most top to
    # [0, m).  A round (s, mu, t) with mu = 2^(s+t) // m subtracts q * m,
    # q = ((x >> s) * mu) >> t <= x / m.  With t the largest for which
    # (top >> s) * mu fits a slot, x - q * m is below (x mod 2^s) + m +
    # (top >> s) * (2^(s+t) mod m) / 2^t, the next top.  s = bitlen(top)
    # - bits/2 balances the first and last terms, but is never below
    # bitlen(m) - 1, where the first is below m anyway.  While top >= 3m,
    # one round takes it below max(top/4 + m, top/8 + 2m), as slots hold
    # one bit more than top; on every m and len(den) tried, at most two
    # rounds reach 3m.  Then top // m conditional subtractions.
    out = []
    while top >= 3 * m:
        s = max(m.bit_length() - 1, top.bit_length() - bits // 2)
        hi = top >> s
        t = bits - hi.bit_length() - s + m.bit_length()
        while hi * ((1 << s + t) // m) >> bits:
            t -= 1
        mu = (1 << s + t) // m
        out.append((s, mu, t))
        top = (1 << s) - 1 + m + (hi * ((1 << s + t) - m * mu) >> t)
    return out, top // m


def _slicer(count, width):
    # unpacks the bytes of `count` slots of `width` bytes into a tuple, in one call
    return struct.Struct(f"{width}s" * count).unpack
