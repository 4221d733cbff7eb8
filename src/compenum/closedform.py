"""Numeric closed forms for coefficients of rational generating functions.

Factor the denominator over C and expand over the simple poles: each
coefficient becomes the finite sum

    c(n) = q(n) + sum_j r_j * alpha_j^(-n)

where q is the exact polynomial quotient of numerator by denominator
(nonzero only while the numerator degree reaches the denominator's) and
the alpha_j are the denominator roots.  The residue coefficients come
from r_j = -N(alpha_j) / (alpha_j * D'(alpha_j)), which is valid whether
or not the fraction is proper because N and the division remainder agree
at every root of D.

All numerics run at a caller-chosen precision (at most MAX_DIGITS) plus
guard digits, on one polynomial q read through its nonzero taps (see
_sparse_form), built once: q = D, or q = (1 - x) D with the numerator
(1 - x) N where that is sparser and D(1) != 0.  That is the step of the
paper's lemma, 1 - x - ... - x^k becomes 1 - 2x + x^(k+1): it changes
how N / D is written, not its value, and gives q the known simple root
1.  An Aberth-Ehrlich iteration in double precision seeds every other
root, with 1 held fixed, and Newton steps in fixed-point Gaussian
integers refine each seed on or above the real axis to the working
precision plus NEWTON_GUARD_BITS.  From then on each root is the exact
dyadic point (a + bi) / 2^s that Newton produced, held as two integers,
the known root 1 the point (2^s, 0), and the rest runs on integers: the
snap onto the axis, the exact conjugates that stand in for the roots
below it, the Gerschgorin-type inclusion disks (Carstensen 1991) with
the pole separation check, the sort, after which the known root is
dropped, the residues and their evaluation.  One fixed-point evaluator,
_sparse_eval, serves Newton, the disks' value bounds and the residues:
it gives q(z), and z q'(z) where asked, each with a rigorous running
bound on its error, from the exact point or from any point within a
given distance of it; _ball_mul bounds every product.  The disk radii
are rigorous upper bounds, and pairwise disjoint disks hold one root
each, so they certify the returned set however it was found; a set that
fails any check raises ConvergenceError.  Every
number the module returns is exact: points, residues and evaluated
values are integers over a power of two, and radii, residuals, moduli
and growth rates dyadic Fractions.  dyadic_str prints them.  Every
step is deterministic.  Only squarefree denominators are supported:
find_roots refuses a repeated factor with RepeatedRootError, since it
makes the simple-pole formula wrong.

eval_closed carries the disks through: each pole's radius bounds how
far its residue and its power xi^-n may lie from the computed ones, so
the value comes with a rigorous error bound, and where that interval
holds one integer, the integer is the count.

Since the generating functions here have den(0) = 1, a root inside the
unit circle means exponential coefficient growth at rate 1/|alpha|; the
dominance report says when rounding the single leading term recovers
the exact integer counts.  It reads the disks: a pole lies inside or
outside the unit circle when its whole disk does, and "on" when the disk
meets the circle, which is either a pole on the circle or a precision
too low to tell.
"""

from __future__ import annotations

import cmath
import decimal
import math
from collections import namedtuple
from fractions import Fraction

from .polyring import _sparser, divmod_fractions, poly_gcd

GUARD_DIGITS = 15
# Requested precision above this is refused before any work.  The cost
# grows faster than the square of the digits: on a 2-core host with
# CPython 3.11, `closed-form not:mod:12:0` took 0.26 s at 2000 digits,
# 0.51 s at 5000 and 1.4 s at 10000, as a whole process.
MAX_DIGITS = 10_000
# find_roots refuses, before any root work, an estimated cost above this
# many seconds: 1e-5 * degree^2 * (1 + (digits / 92)^1.6), fitted within
# a factor 1.7 to set:1,t and not:mod:k:0 (degree 5 to 1200, 16 to 10000
# digits) on the host above.  The disks also hold a degree^2 matrix.
MAX_SECONDS = 10
ABERTH_SWEEPS = 100
NEWTON_STEPS = 20
NEWTON_GUARD_BITS = 16
# eval_closed's powers run this many bits past the poles' scale
EVAL_GUARD_BITS = 32
LOG2_10 = math.log(10, 2)


class ClosedFormError(ValueError):
    """Base class for closed-form extraction failures: a refusal of the
    input at the requested precision, so the CLI exits 2 on it."""


class RepeatedRootError(ClosedFormError):
    """The polynomial shares a factor with its derivative."""


class ConvergenceError(ClosedFormError):
    """Numeric root refinement could not certify the requested accuracy."""


def _check_digits(digits):
    if isinstance(digits, bool) or not isinstance(digits, int) or not 16 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must be an integer from 16 to {MAX_DIGITS}")


def _prec(digits):
    """The working precision in bits for `digits` decimal digits:
    digits + GUARD_DIGITS, plus one digit to spare, times log2(10),
    rounded.  Newton's points, and so every printed digit, depend on it."""
    return round((digits + GUARD_DIGITS + 1) * LOG2_10)


def _dyadic(m, t):
    """m / 2^t as an exact Fraction, for any integer t."""
    return Fraction(m, 1 << t) if t >= 0 else Fraction(m << -t)


def dyadic_str(man, exp, digits):
    """man * 2^exp in decimal to `digits` significant digits.  The
    magnitude is truncated to fixed point in binary and then in decimal,
    to about digits + 3 digits, and rounded half up on the next digit.
    A decimal exponent x with min(-(digits // 3), -5) < x < digits
    prints in fixed notation, others as d.ddde+x; trailing zeros are
    stripped, leaving x.0 for an integer.  Beyond 2^+-3500 the
    digits come from an exact decimal product rounded down at digits +
    20 digits instead, so they can differ in the last place only where
    a value lies that close to a rounding boundary."""
    if not man:
        return "0.0"
    sign, man = "-" * (man < 0), abs(man)
    top = exp + man.bit_length()
    if abs(top) <= 3500:
        bits = int((digits + 3) * LOG2_10) + 10
        fixprec = max(bits - top, 0)
        places = int(fixprec / LOG2_10 + 0.5)
        shift = exp + fixprec
        fixed = man << shift if shift >= 0 else man >> -shift
        text = str(fixed * 10**places >> fixprec)
    else:
        context = decimal.Context(
            prec=digits + 20, rounding=decimal.ROUND_DOWN,
            Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
        )
        _, tail, places = context.multiply(man, context.power(2, exp)).as_tuple()
        text, places = "".join(map(str, tail)), -places
    point = len(text) - places - 1  # the decimal exponent
    if len(text) > digits and text[digits] in "56789":
        head = text[:digits].rstrip("9")
        if head:
            text = head[:-1] + str(int(head[-1]) + 1) + "0" * (digits - len(head))
        else:
            text, point = "1" + "0" * (digits - 1), point + 1
    else:
        text = text[:digits]
    split = 1
    if min(-(digits // 3), -5) < point < digits:
        if point < 0:
            text = "0" * -point + text
        else:
            split = point + 1
            text += "0" * (split - len(text))
        point = 0
    text = (text[:split] + "." + text[split:]).rstrip("0")
    if text[-1] == ".":
        text += "0"
    if point == 0:
        return sign + text
    return f"{sign}{text}e{point:+d}"


class ComplexRoot(namedtuple("ComplexRoot", "point residual radius")):
    """One simple denominator root, held as the exact dyadic point z =
    (a + bi) / 2^s that Newton returned, point = (a, b, s).  residual >=
    |q(z)| and the radius of an inclusion disk |x - z| <= radius that
    holds this root and no other are upper bounds, both exact dyadic
    Fractions.  q is the polynomial itself, or (1 - x) times it where
    the lemma's step is taken (see _sparse_form); there |q(z)| = |1 - z|
    |poly(z)|, and the radius, from the d + 1 roots of q, can be up to
    (d + 1) / d times what the d roots of poly alone would give."""

    __slots__ = ()

    @property
    def modulus(self):
        """|z| rounded down at the point's scale 2^-s, a dyadic Fraction;
        not used for sorting."""
        a, b, s = self.point
        return Fraction(math.isqrt(a * a + b * b), 1 << s)


def _sparse_form(num, den):
    """The nonzero taps (e, c) of N and D, or of (1 - x) N and q = (1 -
    x) D where q has fewer taps and D(1) != 0 (else q has a double root
    at 1), stepped through polyring._sparser as expand steps its rows,
    and whether that step was taken, which makes 1 a known simple root
    of q: the paper's lemma steps 1 - x - ... - x^k to 1 - 2x + x^(k+1)."""
    rows = _sparser(num, den) if sum(den) else (num, den, (), False)
    ntaps, dtaps = ([(e, c) for e, c in enumerate(row) if c] for row in rows[:2])
    return ntaps, dtaps, rows[3]


def _float_ratio(taps, z):
    """q(z) / q'(z) in floats from the taps of q: z q(z) and z q'(z)
    summed over them, each power z^e from the last by z ** gap."""
    q = dq = 0j
    power, at = 1, 0
    for e, c in taps:
        power *= z ** (e - at)
        at = e
        q += c * power
        dq += c * e * power
    return z * q / dq


def _aberth_seeds(taps, one):
    """Double-precision approximations to the roots of the polynomial q
    with these taps, q(0) != 0, by the Aberth-Ehrlich iteration, each
    Newton ratio read from the taps (_float_ratio).  Where `one`, 1 is a
    known simple root of q: it stays fixed in every pull sum and is not
    returned, which in exact arithmetic is the iteration on q / (1 - x).
    ConvergenceError when the iteration leaves the float range or two
    approximations collide."""
    d = taps[-1][0] - one
    try:
        radius = abs(float(taps[0][1]) / float(taps[-1][1])) ** (1 / d) or 1.0
        # the angular offset breaks the start's symmetry under conjugation
        zs = [radius * cmath.exp(1j * (2 * math.pi * k / d + 0.4)) for k in range(d)]
        zs += [1.0] * one
        for _ in range(ABERTH_SWEEPS):
            moved = False
            for i in range(d):
                z = zs[i]
                ratio = _float_ratio(taps, z)
                pull = sum(1 / (z - w) for j, w in enumerate(zs) if j != i)
                step = ratio / (1 - ratio * pull)
                zs[i] = z - step
                moved = moved or abs(step) > 1e-14 * abs(z)
            if not moved:
                break
    except (OverflowError, ZeroDivisionError):
        raise ConvergenceError("Aberth seeds collided or left the float range") from None
    zs = zs[:d]
    if not all(cmath.isfinite(z) for z in zs):
        raise ConvergenceError("Aberth seeds left the float range")
    return zs


def _ball_mul(x, y, h=0):
    """The product of two complex integers given with errors, x = (re,
    im, err) for a value within err of re + im i, floored by h bits: (re,
    im, err) with err >= |re + im i - XY / 2^h| for every X within x's
    err of x and Y within y's of y.  That is (|x'| |dy| + (|y'| + |dy|)
    |dx|) / 2^h rounded up, with |x'| <= |re| + |im|, plus 2 units for
    the floors when h > 0."""
    xr, xi, dx = x
    yr, yi, dy = y
    err = (abs(xr) + abs(xi)) * dy + (abs(yr) + abs(yi) + dy) * dx
    return (xr * yr - xi * yi) >> h, (xr * yi + xi * yr) >> h, -(-err >> h) + 2 if h else err


def _power(a, b, err, e, w, top=None):
    """(a + bi)^e, e >= 1, for a base at scale 2^w given within err of
    some xi, by repeated squaring with every product floored by
    _ball_mul: integers (gr, gi, gerr, x) with |gr + gi i - 2^(w - x)
    xi^e| <= gerr.  x = 0 unless `top` is given; then a product that
    would pass 2^top is shifted down further and x counts the extra
    bits, so any e costs about log2(e) products of at most 2 top bits."""
    base = g = (a, b, err)
    size, x = (abs(a) + abs(b)).bit_length(), 0
    for bit in bin(e)[3:]:
        h = w if top is None else max(w, 2 * (abs(g[0]) + abs(g[1])).bit_length() - top)
        g, x = _ball_mul(g, g, h), 2 * x + h - w
        if bit == "1":
            h = w if top is None else max(w, (abs(g[0]) + abs(g[1])).bit_length() + size - top)
            g, x = _ball_mul(g, base, h), x + h - w
    return (*g, x)


def _sparse_eval(taps, a, b, s, w, zerr=0, slope=False):
    """q(z) for the taps (e, c) of q at the dyadic point z = (a + bi) /
    2^s, s <= w, as integers (qr, qi) at scale 2^w with an integer err
    >= |qr + qi i - 2^w q(xi)| for every xi within zerr / 2^w of z (zerr
    = 0: xi = z).  With slope, z q'(z) and its bound follow as (dr, di,
    derr); Newton and a residue's denominator read them, and only they
    pay for the sums.  Each power z^e is the last one times z^gap
    (_power), floored with its error bound by _ball_mul.  The tap sums
    are exact, so err sums |c| times the bounds, and derr |c| e times
    them."""
    a, b = a << (w - s), b << (w - s)
    qr = qi = dr = di = err = derr = 0
    z, p, at = (a, b, zerr), (1 << w, 0, 0), 0
    for e, c in taps:
        if e > at:
            p, at = _ball_mul(p, z if e - at == 1 else _power(*z, e - at, w)[:3], w), e
        pr, pi, perr = p
        qr, qi = qr + c * pr, qi + c * pi
        err += abs(c) * perr
        if slope:
            dr, di = dr + c * e * pr, di + c * e * pi
            derr += abs(c * e) * perr
    return (qr, qi, err, dr, di, derr) if slope else (qr, qi, err)


def _scale(taps, a, b, s):
    """A scale w for _sparse_eval at z = (a + bi) / 2^s: 64 bits past s
    and the likely rounding error, about 2 e |c| |z|^e units for a tap c
    x^e.  The error bound that comes back holds at any w."""
    top = taps[-1][0]
    lift = top * max(0.0, math.log2(a * a + b * b + 1) / 2 - s)
    return s + 64 + (2 * top * sum(abs(c) for _, c in taps)).bit_length() + math.ceil(lift)


def _newton_step(taps, a, b, w):
    """The Newton step q(z) / q'(z) at z = (a + bi) / 2^w as integers at
    scale 2^w, from q(z) and z q'(z) (_sparse_eval) as in _float_ratio.
    ConvergenceError where the step's denominator vanishes."""
    qr, qi, _, dr, di, _ = _sparse_eval(taps, a, b, w, w, slope=True)
    nr, ni = (qr * a - qi * b) >> w, (qr * b + qi * a) >> w  # z q(z)
    norm = dr * dr + di * di
    if not norm:
        raise ConvergenceError("Newton step met a vanishing derivative")
    return ((nr * dr + ni * di) << w) // norm, ((ni * dr - nr * di) << w) // norm


def _fixed(z, w):
    """The float z as integers (a, b) at scale 2^w, w >= 50."""
    return round(math.ldexp(z.real, 50)) << (w - 50), round(math.ldexp(z.imag, 50)) << (w - 50)


def _newton(taps, z, bits, extra):
    """Refine the float root approximation z of the polynomial with
    these taps by Newton steps in fixed point, z = (a + bi) / 2^w,
    doubling w up to bits + extra.  Returns (a, b) floored back to w =
    bits; ConvergenceError where the step's denominator vanishes."""
    top, w = bits + extra, 50
    a, b = _fixed(z, w)
    for _ in range(NEWTON_STEPS):
        grow = min(w, top - w)
        a, b, w = a << grow, b << grow, w + grow
        step_re, step_im = _newton_step(taps, a, b, w)
        a, b = a - step_re, b - step_im
        # a step below 2^(-w/2) leaves an error near 2^-w: converged
        if w == top and max(abs(step_re), abs(step_im)) >> (w // 2) == 0:
            break
    return a >> extra, b >> extra


def _float_seeded_roots(taps, one, prec):
    """Aberth seeds of the polynomial q with these taps, refined by
    Newton to prec plus guard bits: the exact points (a, b) that Newton
    returns at its scale 2^s, s = prec + NEWTON_GUARD_BITS, unrounded
    and unsnapped (see _pair).  Only the seeds on or near the real axis
    and above it are refined; a seed with Im z < -1e-7 (1 + |z|) comes
    back unrefined at scale 2^s, for _pair to count and replace by the
    exact conjugate of its partner.  Where `one`, q's known root 1 is the
    exact point (2^s, 0), with no Newton run; near it q' = (1 - z) D' is
    small, so Newton runs 2 log2(1 / |1 - z|) bits past s there.  A
    simple root at 0, where _float_ratio would divide 0 by 0, is the
    exact point (0, 0), and the seeds are those of q / x (x^2 | q is
    refused before)."""
    s = prec + NEWTON_GUARD_BITS
    v = taps[0][0]  # 1 for a root at 0
    seed_taps = [(e - v, c) for e, c in taps]
    seeds = _aberth_seeds(seed_taps, one) if seed_taps[-1][0] > one else []
    pts = [
        _fixed(z, s) if z.imag < -1e-7 * (1 + abs(z))
        else _newton(taps, z, s, 2 * max(0, -math.frexp(abs(1 - z))[1]) if one else 0)
        for z in seeds
    ]
    return pts + [(1 << s, 0)] * one + [(0, 0)] * v, s


def _inclusion_disks(taps, pts, s, digits):
    """Pairs (r_i, e_i) with radius r_i >= d |q(z_i)| / (|lc| prod_{j != i}
    |z_i - z_j|) and residual e_i >= |q(z_i)|, dyadic Fractions, at the
    d points z_i = (a_i + b_i i) / 2^s, one per root of the polynomial q
    with these taps.  ConvergenceError unless the disks |z - z_i| <= r_i are
    pairwise disjoint and every two points are more than 10^-(digits-10)
    apart: gap^2 * 10^(2(digits-10)) > 4^s.

    The union of these disks holds every root of q, and a connected
    component of m of them holds exactly m roots (Braess and Hadeler
    1973; Carstensen, Numer. Math. 1991), so pairwise disjoint disks
    hold one root each.  Each residual depends only on its own point and
    s: the exact conjugate of the point before it, as _pair emits them,
    takes that point's bound, since |q(conj z)| = |q(z)| for real q.  The
    gaps |z_i - z_j|^2 are exact integers at scale 4^s, and each point's
    product of them is formed on its own.  |q(z_i)| is bounded above by
    _sparse_eval's value plus its error bound, the product of gaps is
    rounded down and each radius is rounded up to a 41-bit dyadic, so
    every r_i is a rigorous upper bound.
    """
    d, lc = len(pts), taps[-1][1]
    gaps = [[(a - c) ** 2 + (b - e) ** 2 for c, e in pts] for a, b in pts]
    mantissas, exponents, residuals = [], [], []  # r_i <= mantissas[i] * 2^-exponents[i]
    for i, (a, b) in enumerate(pts):
        # |q(conj z)| = |q(z)| for real q: an exact conjugate reuses the bound
        if not (i and pts[i - 1] == (a, -b)):
            w = _scale(taps, a, b, s)
            qr, qi, err = _sparse_eval(taps, a, b, s, w)
            value = math.isqrt(qr * qr + qi * qi) + 1 + err  # >= 2^w |q(z_i)|
            residual = _dyadic(value, w)
        residuals.append(residual)
        low, shift = 1, 0  # low * 2^shift <= prod_{j != i} gaps[i][j]
        for j, g in enumerate(gaps[i]):
            if j != i:
                low *= g
                excess = low.bit_length() - 64
                if excess > 0:
                    low, shift = low >> excess, shift + excess
        if not low:
            raise ConvergenceError("root inclusion disks overlap")
        # r_i^2 <= num / den * 2^e, scaled by 4^t to about 2^80
        num, den = d * d * value * value, lc * lc * low
        e = 2 * s * (d - 1) - 2 * w - shift
        t = (80 - num.bit_length() + den.bit_length() - e) // 2
        k = 2 * t + e
        q = -(-(num << max(k, 0)) // (den << max(-k, 0)))
        root = math.isqrt(q)
        mantissas.append(root + (root * root < q))
        exponents.append(t)
    scale = 10 ** (2 * (digits - 10))
    for i in range(d):
        for j in range(i):
            m = max(exponents[i], exponents[j], s)
            reach = (mantissas[i] << (m - exponents[i])) + (mantissas[j] << (m - exponents[j]))
            if reach * reach >= gaps[i][j] << (2 * (m - s)):
                raise ConvergenceError("root inclusion disks overlap")
            if gaps[i][j] * scale <= 1 << (2 * s):
                raise ConvergenceError("poles too close to separate at this precision")
    return [(_dyadic(u, t), e) for u, t, e in zip(mantissas, exponents, residuals)]


def _pair(pts, s, digits):
    """Snap tiny parts to zero and close the set under conjugation: the
    real points, then each point above the axis followed by its exact
    conjugate, in place of the points below it.  A real part below
    2^(1 - prec) at s = prec + NEWTON_GUARD_BITS becomes 0, so a purely
    imaginary root stays exactly so, and a point near the axis is put on
    it.  The points below the axis are only counted, so they may be the
    unrefined seeds that _float_seeded_roots leaves there.
    ConvergenceError unless as many points lie below the axis as above;
    the inclusion disks then certify the set that comes out."""
    one, snap, tiny = 1 << s, 10 ** (digits - 8), 1 << (NEWTON_GUARD_BITS + 1)
    reals, upper, below = [], [], 0
    for a, b in pts:
        a = a if abs(a) >= tiny else 0
        # |Im z| <= 10^-(digits-8) (1 + |z|) puts z on the axis
        over = abs(b) * snap - one
        if over <= 0 or over * over <= a * a + b * b:
            reals.append((a, 0))
        elif b > 0:
            upper.extend(((a, b), (a, -b)))
        else:
            below += 1
    if 2 * below != len(upper):
        raise ConvergenceError("complex roots do not split into conjugate pairs")
    return reals + upper


def _order(pts, s, digits):
    """Indices of pts by modulus, each run of moduli that agree within
    10^-(digits-10) sorted by (|arg|, arg), all from exact integer keys:
    |arg| grows as Re z / |z| falls, and of two conjugates the one with
    Im z < 0 has the smaller arg."""
    norms = [a * a + b * b for a, b in pts]
    moduli = [math.isqrt(m) for m in norms]  # within 2^-s of |z|
    one, tol = 1 << s, 10 ** (digits - 10)
    runs = []
    for i in sorted(range(len(pts)), key=norms.__getitem__):
        if runs and (moduli[i] - moduli[runs[-1][0]]) * tol <= one:
            runs[-1].append(i)
        else:
            runs.append([i])

    def angle(i):
        a, b = pts[i]
        cos = Fraction(a * abs(a), norms[i]) if norms[i] else 1  # sign(cos) cos^2
        return -cos, (b > 0) - (b < 0)

    return [i for run in runs for i in sorted(run, key=angle)]


def find_roots(poly, digits=50):
    """All complex roots of an integer polynomial, certified to `digits`.

    Steps p once (see _sparse_form) and runs _find_roots on the taps of
    q, which is p or (1 - x) p: one pipeline, each failure a
    ClosedFormError.  Refuse an input whose estimated cost is above
    MAX_SECONDS, and a repeated factor (gcd(p, p') nonconstant); seed
    every root of q but the known root 1 by an Aberth-Ehrlich iteration
    in double precision; refine each seed on or above the axis by
    fixed-point Newton steps up to the working precision (digits plus
    GUARD_DIGITS) plus NEWTON_GUARD_BITS.  Each returned ComplexRoot is
    built from the exact dyadic point (a, b, s) Newton returned.  Tiny
    real parts become 0, near-real roots are snapped onto the axis, and
    each root above it is emitted with its exact conjugate in place of
    the roots below it (see _pair); inclusion disks around the roots of
    q (see _inclusion_disks), pairwise disjoint with every two roots
    more than 10^-(digits-10) apart, and a bound on each residual |q(z)|
    certify the set.  Each root carries its disk radius.  Output is
    sorted by (modulus, |arg|, arg), which puts the growth-dominant root
    first; moduli within the certification tolerance count as equal, so
    rounding noise never decides the order of equal-modulus roots.  The
    keys are exact integers of the dyadic points (see _order).  The
    known root 1 of q is dropped last.
    """
    _check_digits(digits)
    if not poly:
        raise ValueError("zero polynomial has no root set")
    if poly.degree < 1:
        return ()
    _, taps, one = _sparse_form((), poly.coeffs)
    return _find_roots(poly, taps, one, digits)


def _find_roots(poly, taps, one, digits):
    """find_roots' pipeline on poly, of degree >= 1, through the taps of
    q and whether 1 is its known root (see _sparse_form)."""
    seconds = 1e-5 * poly.degree**2 * (1 + (digits / 92) ** 1.6)
    if seconds > MAX_SECONDS:
        raise ClosedFormError(
            f"a closed form of degree {poly.degree} at {digits} digits is estimated "
            f"at {seconds:.3g} s, more than the {MAX_SECONDS} s limit"
        )
    common = poly_gcd(poly, poly.derivative())
    if common.degree >= 1:
        raise RepeatedRootError(f"repeated factor (gcd with derivative is {common})")
    pts, s = _float_seeded_roots(taps, one, _prec(digits))
    pts = _pair(pts, s, digits)
    disks = _inclusion_disks(taps, pts, s, digits)
    bound = max(1, max(abs(c) for c in poly.coeffs))  # times 10^-(digits - 10)
    for _, resid in disks:
        if resid.numerator * 10 ** (digits - 10) > bound * resid.denominator:
            shown = dyadic_str(resid.numerator, 1 - resid.denominator.bit_length(), 5)
            raise ConvergenceError(f"residual {shown} above certification bound")
    known = pts.index((1 << s, 0)) if one else None
    return tuple(
        ComplexRoot((*pts[i], s), disks[i][1], disks[i][0])
        for i in _order(pts, s, digits)
        if i != known
    )


class PartialFraction(
    namedtuple("PartialFraction", "poly_part poles residue_coeffs residue_errors", defaults=((),))
):
    """poly_part: exact Fraction coefficients of the division quotient,
    indexed by n (empty for proper fractions).  poles, residue_coeffs
    and residue_errors are aligned and sorted with the smallest-modulus
    pole first.  Each residue is (re, im, k) for (re + im i) / 2^k, found
    to about 32 bits past the working precision (the digits passed to
    partial_fractions, which are not kept), and its error e, at the
    same scale 2^k, bounds its distance e / 2^k from the true residue at
    the root in the pole's disk; residue_errors defaults to ()."""

    __slots__ = ()


def _residue(ntaps, dtaps, a, b, s, prec, radius):
    """r = -N(z) / (z D'(z)) at z = (a + bi) / 2^s as integers (re, im,
    k, err): r = (re + im i) / 2^k, found to about prec + 32 bits and
    kept so, and err / 2^k >= |r - r(xi)| for the root xi within `radius`
    of z.  N and z D' come from the taps of N and D, read by _sparse_eval
    with the radius as the error of z, then one exact complex division,
    floored.  Where the lemma's step is taken they are the taps of
    (1 - x) N and (1 - x) D, whose quotient is the same at every root of
    D.  Of a quotient A' / B' of values within eA and eB of A and B,
    |A / B - A' / B'| <= (eA |B'| + |A'| eB) / (|B'| (|B'| - eB)).
    ConvergenceError where eB reaches |B'|."""
    w = max(_scale(ntaps, a, b, s), _scale(dtaps, a, b, s))
    zerr = -(-(radius.numerator << w) // radius.denominator)  # radius, up, at 2^w
    nr, ni, nerr = _sparse_eval(ntaps, a, b, s, w, zerr)
    _, _, _, dr, di, derr = _sparse_eval(dtaps, a, b, s, w, zerr, slope=True)
    norm = dr * dr + di * di
    # r = -(nr + ni i)(dr - di i) / |d|^2; keep prec + 32 bits of it
    t = max(0, prec + 32 + max(abs(dr), abs(di)).bit_length() - max(abs(nr), abs(ni)).bit_length())
    re = -((nr * dr + ni * di) << t) // norm
    im = -((ni * dr - nr * di) << t) // norm
    low = math.isqrt(norm)  # <= |z D'|
    if low <= derr:
        raise ConvergenceError("residues not certified at this precision")
    size = math.isqrt(nr * nr + ni * ni) + 1  # >= |N|
    err = -(-((nerr * low + size * derr) << t) // (low * (low - derr))) + 2
    return re, im, t, err


def partial_fractions(gf, digits=50):
    """Simple-pole expansion of a reduced RationalGF, as
    genfun.composition_gf returns it, at the given precision: a shared
    factor would show up as a spurious pole or a repeated root.  Takes
    the certified, separated poles from find_roots, then checks that the
    residues reproduce the n = 0 coefficient.  Everything runs on each
    pole's exact point (a, b, s), read from ComplexRoot.point: each
    residue comes from the taps of N and D, stepped once together for
    roots and residues (see _sparse_form), read by _sparse_eval at 64
    bits past the working precision, and one exact division (see
    _residue), with an error bound from the pole's disk.  The exact
    conjugate of the pole before it, as find_roots sorts each pair,
    takes the conjugate of that residue.
    """
    _check_digits(digits)
    num, den = gf.num, gf.den
    if not num or den.degree < 1:
        # the zero series, or den is the constant 1: the series is num itself
        return PartialFraction(tuple(map(Fraction, num.coeffs)), (), ())
    quot, _ = divmod_fractions(num, den)
    ntaps, dtaps, one = _sparse_form(num.coeffs, den.coeffs)
    poles = _find_roots(den, dtaps, one, digits)
    prec = _prec(digits)
    parts = []
    for i, pole in enumerate(poles):
        a, b, s = pole.point
        if i and poles[i - 1].point == (a, -b, s):
            # r(conj z) = conj r(z) for real N and D
            re, im, k, err = parts[-1]
            parts.append((re, -im, k, err))
        else:
            parts.append(_residue(ntaps, dtaps, a, b, s, prec, pole.radius))
    top = max(k for _, _, k, _ in parts)
    real = sum(re << (top - k) for re, _, k, _ in parts)
    imag = sum(im << (top - k) for _, im, k, _ in parts)
    head = quot[0] if quot else Fraction(0)
    # c(0) = head + sum r_j within 10^-(digits - GUARD_DIGITS)
    tol = 10 ** (digits - GUARD_DIGITS)
    if abs(Fraction(real, 1 << top) + head - num[0]) * tol > 1 or abs(imag) * tol > 1 << top:
        raise ConvergenceError("residues fail the n = 0 normalization check")
    residues = tuple(part[:3] for part in parts)
    return PartialFraction(tuple(quot), poles, residues, tuple(p[3] for p in parts))


EvalResult = namedtuple("EvalResult", ["value", "error", "scale", "exact"])


def eval_closed(pf, n):
    """Evaluate the closed form at integer n >= 0, with a certificate.

    Returns EvalResult(value, error, scale, exact), integers with
    |c(n) - value / 2^scale| <= error / 2^scale, where c(n) is the exact
    quotient term plus the pole sum at the true poles and residues, and
    exact is the one integer in [value - error, value + error] / 2^scale,
    or None where that holds none or several.

    The sum runs in fixed point, each conjugate pair once as 2 Re, a
    real pole once.  Each pole's term starts from 1/z at the scale 2^w,
    w = EVAL_GUARD_BITS past the poles' scale, off from 1/xi for the root
    xi in the disk by at most radius / (|z| (|z| - radius)); _power
    carries that error to xi^-n, and _ball_mul through the product with
    the residue and its own error.  A power above 2^w keeps its top 2w
    bits, so no n builds a large integer, and scale is below 0 only for
    such values, which no integer could be certified for anyway.  ConvergenceError where a pole's disk reaches 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    w = (pf.poles[0].point[2] if pf.poles else 0) + EVAL_GUARD_BITS
    terms = []  # (Re, error, x, k, weight): Re / 2^(w + k - x), the error alike
    for pole, (re, im, k), rerr in zip(pf.poles, pf.residue_coeffs, pf.residue_errors):
        a, b, s = pole.point
        if b < 0:
            continue  # the conjugate of a pole above the axis: counted there
        norm = a * a + b * b
        low = math.isqrt(norm)  # <= 2^s |z|
        rn, rd = pole.radius.numerator, pole.radius.denominator
        gap = low * rd - (rn << s)  # <= 2^s rd (|z| - radius)
        if gap <= 0:
            raise ConvergenceError("a pole's disk reaches 0")
        # 1/z = (a - bi) 2^s / |2^s z|^2 at scale 2^w
        uerr = -(-(rn << (2 * s + w)) // (low * gap)) + 2
        u = ((a << (w + s)) // norm, (-b << (w + s)) // norm, uerr)
        pr, pi, perr, x = _power(*u, n, w, 2 * w) if n else (1 << w, 0, 0, 0)
        tr, _, terr = _ball_mul((re, im, rerr), (pr, pi, perr))
        terms.append((tr, terr, x, k, 2 if b else 1))
    # the sum at scale 2^bits, bits = w + K - X; a term shifted down adds a unit
    top_x = max((t[2] for t in terms), default=0)
    top_k = max((t[3] for t in terms), default=0)
    total = err = 0
    for tr, terr, x, k, weight in terms:
        shift = top_k - k - (top_x - x)
        if shift >= 0:
            total, err = total + (weight * tr << shift), err + (weight * terr << shift)
        else:
            total, err = total + (weight * tr >> -shift), err + (weight * terr >> -shift) + 2
    bits = w + top_k - top_x
    if n < len(pf.poly_part):
        q = pf.poly_part[n]
        qn, qd = (q.numerator << bits, q.denominator) if bits >= 0 else (q.numerator, q.denominator << -bits)
        value, rest = divmod(qn, qd)
        total, err = total + value, err + (rest != 0)
    exact = None
    if bits >= 0:
        low, high = -(-(total - err) >> bits), (total + err) >> bits
        exact = low if low == high else None
    return EvalResult(total, err, bits, exact)


class DominanceReport(
    namedtuple("DominanceReport", "classifications growth_rate unique_dominant nearest_integer_valid")
):
    """Pole layout relative to the unit circle, read off the inclusion
    disks of the PartialFraction's poles, which it does not copy.

    classifications[i] labels pf.poles[i] "inside" or "outside" when its
    disk lies wholly on that side of |z| = 1, and "on" when the disk
    meets the circle: either the pole lies on it, or the precision is
    too low to tell.  growth_rate is 1/min|alpha|, a dyadic Fraction at
    the poles' scale.  unique_dominant says the modulus intervals [|z| -
    r, |z| + r] of the first two poles are disjoint.
    nearest_integer_valid is True exactly when the dominant pole is
    unique and every other pole lies outside the unit circle, which
    makes the non-dominant terms decay to zero so rounding the dominant
    term eventually recovers the exact counts.
    """

    __slots__ = ()


def _modulus_interval(root):
    """Fractions lo <= |z| - r and hi >= |z| + r for a root's disk: the
    point (a + bi) / 2^s and the radius's exact dyadic m 2^e as integers
    at the scale 2^k, k = max(s, -e), and the modulus bracketed by isqrt."""
    a, b, s = root.point
    m, e = root.radius.numerator, 1 - root.radius.denominator.bit_length()
    k = max(s, -e)
    square = (a * a + b * b) << (2 * (k - s))
    low = math.isqrt(square)
    high = low + (low * low < square)
    r = m << (k + e)
    return Fraction(low - r, 1 << k), Fraction(high + r, 1 << k)


def dominance_report(pf):
    """Classify the poles of a PartialFraction against the unit circle.

    Reads pf.poles and their disk radii, so the roots found for the
    partial fraction are the ones classified, labelled in pf.poles'
    order, and every label and the uniqueness verdict hold for the true
    poles.  The growth rate is 2^s / isqrt(a^2 + b^2) of the first
    pole's point, floored at 2^-s.
    """
    if not pf.poles:
        return DominanceReport((), Fraction(0), False, False)
    poles = pf.poles
    spans = [_modulus_interval(p) for p in poles]
    labels = tuple("inside" if high < 1 else "outside" if low > 1 else "on" for low, high in spans)
    unique = len(poles) == 1 or spans[0][1] < spans[1][0] or spans[1][1] < spans[0][0]
    valid = unique and all(label == "outside" for label in labels[1:])
    a, b, s = poles[0].point
    growth = Fraction((1 << 2 * s) // math.isqrt(a * a + b * b), 1 << s)
    return DominanceReport(labels, growth, unique, valid)
