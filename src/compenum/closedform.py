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
guard digits, and read the denominator D through its sparse form (see
_sparse_form), built once: the step of the paper's lemma, 1 - x - ... -
x^k becomes 1 - 2x + x^(k+1), taken where that is sparser and
D(1) != 0.  An Aberth-Ehrlich iteration in double precision
seeds every root, and Newton steps in fixed-point Gaussian integers
refine each seed on or above the real axis to the working precision
plus NEWTON_GUARD_BITS.  From then on each root is the exact dyadic
point (a + bi) / 2^s that Newton produced, held as two integers, and
the rest runs on integers: the snap onto the axis, the exact conjugates
that stand in for the roots below it, the Gerschgorin-type inclusion
disks (Carstensen 1991) with the pole separation check, the sort and
the residues.  One fixed-point evaluator, _sparse_eval, serves Newton,
the disks' value bounds and the residues: it gives q(z) and z q'(z)
with a rigorous running bound on the error in q(z).  The disk radii are
rigorous upper bounds, and pairwise disjoint disks hold one root each,
so they certify the returned set however it was found; a set that fails
any check raises ConvergenceError.  mpmath numbers are built only for
what is shown: a root's value is its point as an exact mpc, a radius an
exact dyadic, and residuals and residues are rounded to the working
precision.  Every step is deterministic.  Only squarefree denominators
are supported: find_roots refuses a repeated factor with
RepeatedRootError, since it makes the simple-pole formula wrong.

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
import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_man_exp

from .polyring import _sparser, divmod_fractions, poly_gcd

GUARD_DIGITS = 15
# Requested precision above this is refused before any work.  The cost
# grows faster than the square of the digits: on a 2-core host with
# CPython 3.11 and mpmath without gmpy2, `closed-form not:mod:12:0` took
# 0.35 s at 2000 digits, 1.3 s at 5000 and 3.3 s at 10000.
MAX_DIGITS = 10_000
# find_roots refuses, before any root work, an estimated cost above this
# many seconds: 1e-5 * degree^2 * (1 + (digits / 92)^1.6), fitted within
# a factor 1.7 to set:1,t and not:mod:k:0 (degree 5 to 1200, 16 to 10000
# digits) on the host above.  The disks also hold a degree^2 matrix.
MAX_SECONDS = 10
ABERTH_SWEEPS = 100
NEWTON_STEPS = 20
NEWTON_GUARD_BITS = 16


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


@dataclass(frozen=True)
class ComplexRoot:
    """One simple denominator root, held as the exact dyadic point z =
    (a + bi) / 2^s that Newton returned, point = (a, b, s).  residual >=
    |poly(z)| and the radius of an inclusion disk |x - z| <= radius that
    holds this root and no other are mpf upper bounds, the radius an
    exact dyadic.  value is z as an mpc, exact, built once when the root
    is made.  The modulus is computed at the precision in effect where it
    is read and is not used for sorting."""

    point: tuple
    residual: object
    radius: object
    value: object = field(init=False, compare=False)

    def __post_init__(self):
        a, b, s = self.point
        object.__setattr__(self, "value", mp.make_mpc((from_man_exp(a, -s), from_man_exp(b, -s))))

    @property
    def modulus(self):
        return mp.fabs(self.value)


def _sparse_form(coeffs):
    """The nonzero taps (e, c) of a denominator D = sum(coeffs[e] x^e), or of
    q = (1 - x) D where that has fewer taps and D(1) != 0 (else q has a
    double root at 1), and whether that step was taken: the paper's lemma
    steps 1 - x - ... - x^k to 1 - 2x + x^(k+1)."""
    _, row, _, stepped = _sparser((), coeffs) if sum(coeffs) else ((), coeffs, (), False)
    return [(e, c) for e, c in enumerate(row) if c], stepped


def _float_ratio(form, z):
    """p(z) / p'(z) in floats from the sparse form: q(z) and z q'(z)
    summed over the taps, each power z^e from the last by z ** gap.  In
    the stepped form q = (1 - x) p this is z q (1 - z) / ((1 - z) z q' +
    z q), which divides by no power of 1 - z."""
    taps, stepped = form
    q = dq = 0j
    power, at = 1, 0
    for e, c in taps:
        power *= z ** (e - at)
        at = e
        q += c * power
        dq += c * e * power
    zq = z * q
    if not stepped:
        return zq / dq
    u = 1 - z
    return zq * u / (u * dq + zq)


def _aberth_seeds(coeffs, form):
    """Double-precision approximations to all roots of sum(coeffs[k] x^k)
    by the Aberth-Ehrlich iteration, each Newton ratio read from its
    sparse form `form` (_float_ratio); ConvergenceError when the
    iteration leaves the float range or two approximations collide."""
    d = len(coeffs) - 1
    try:
        radius = abs(float(coeffs[0]) / float(coeffs[-1])) ** (1 / d) or 1.0
        # the angular offset breaks the start's symmetry under conjugation
        zs = [radius * cmath.exp(1j * (2 * math.pi * k / d + 0.4)) for k in range(d)]
        for _ in range(ABERTH_SWEEPS):
            moved = False
            for i, z in enumerate(zs):
                ratio = _float_ratio(form, z)
                pull = sum(1 / (z - w) for j, w in enumerate(zs) if j != i)
                step = ratio / (1 - ratio * pull)
                zs[i] = z - step
                moved = moved or abs(step) > 1e-14 * abs(z)
            if not moved:
                break
    except (OverflowError, ZeroDivisionError):
        raise ConvergenceError("Aberth seeds collided or left the float range") from None
    if not all(cmath.isfinite(z) for z in zs):
        raise ConvergenceError("Aberth seeds left the float range")
    return zs


def _sparse_eval(form, a, b, s, w):
    """q(z) and z q'(z) for the sparse form (see _sparse_form) at the
    dyadic point z = (a + bi) / 2^s, s <= w, as integers (qr, qi, dr, di)
    at scale 2^w, and an integer err >= |qr + qi i - 2^w q(z)|.  Each
    power z^e is the last one times z^gap, found by repeated squaring,
    with both parts of every product floored.  Each power carries a
    running bound on its error: a floored product of x + dx and y + dy,
    values and errors in units of 2^-w, is off from xy by at most (|x +
    dx| |dy| + (|y + dy| + |dy|) |dx|) / 2^w + 2 units, with |x + dx| <=
    |Re| + |Im|.  The tap sum is exact, so err sums |c| times the bounds."""
    a, b = a << (w - s), b << (w - s)
    size = abs(a) + abs(b)
    qr = qi = dr = di = err = 0
    pr, pi, perr, at = 1 << w, 0, 0, 0
    for e, c in form[0]:
        if e > at:
            gr, gi, gerr = a, b, 0  # z^(e - at)
            for bit in bin(e - at)[3:]:
                gerr = -(-gerr * (2 * (abs(gr) + abs(gi)) + gerr) >> w) + 2
                gr, gi = (gr * gr - gi * gi) >> w, (2 * gr * gi) >> w
                if bit == "1":
                    gerr = -(-gerr * size >> w) + 2
                    gr, gi = (gr * a - gi * b) >> w, (gr * b + gi * a) >> w
            perr = -(-((abs(pr) + abs(pi)) * gerr + (abs(gr) + abs(gi) + gerr) * perr) >> w) + 2
            pr, pi = (pr * gr - pi * gi) >> w, (pr * gi + pi * gr) >> w
            at = e
        qr, qi = qr + c * pr, qi + c * pi
        dr, di = dr + c * e * pr, di + c * e * pi
        err += abs(c) * perr
    return qr, qi, dr, di, err


def _scale(form, a, b, s):
    """A scale w for _sparse_eval at z = (a + bi) / 2^s: 64 bits past s
    and the likely rounding error, about 2 e |c| |z|^e units for a tap c
    x^e.  The error bound that comes back holds at any w."""
    top = form[0][-1][0]
    lift = top * max(0.0, math.log2(a * a + b * b + 1) / 2 - s)
    return s + 64 + (2 * top * sum(abs(c) for _, c in form[0])).bit_length() + math.ceil(lift)


def _newton_step(form, a, b, w):
    """The Newton step p(z) / p'(z) at z = (a + bi) / 2^w as integers at
    scale 2^w, from q(z) and z q'(z) (_sparse_eval) as in _float_ratio.
    ConvergenceError where the step's denominator vanishes."""
    qr, qi, dr, di, _ = _sparse_eval(form, a, b, w, w)
    nr, ni = (qr * a - qi * b) >> w, (qr * b + qi * a) >> w  # z q(z)
    if form[1]:
        ur, ui = (1 << w) - a, -b  # 1 - z
        dr, di = ((dr * ur - di * ui) >> w) + nr, ((dr * ui + di * ur) >> w) + ni
        nr, ni = (nr * ur - ni * ui) >> w, (nr * ui + ni * ur) >> w
    norm = dr * dr + di * di
    if not norm:
        raise ConvergenceError("Newton step met a vanishing derivative")
    return ((nr * dr + ni * di) << w) // norm, ((ni * dr - nr * di) << w) // norm


def _fixed(z, w):
    """The float z as integers (a, b) at scale 2^w, w >= 50."""
    return round(math.ldexp(z.real, 50)) << (w - 50), round(math.ldexp(z.imag, 50)) << (w - 50)


def _newton(form, z, bits):
    """Refine the float root approximation z of the polynomial with the
    sparse form `form` (see _sparse_form) by Newton steps in fixed point,
    z = (a + bi) / 2^w, doubling w up to `bits`.  Returns (a, b) at w =
    bits; ConvergenceError where the step's denominator vanishes.

    The stepped form loses about 2 log2(1 / |1 - z|) bits to the factor
    1 - z, so near z = 1 the steps run that many bits past `bits`, and
    the result is floored back to 2^bits."""
    extra = 2 * max(0, -math.frexp(abs(1 - z))[1]) if form[1] else 0
    top, w = bits + extra, 50
    a, b = _fixed(z, w)
    for _ in range(NEWTON_STEPS):
        grow = min(w, top - w)
        a, b, w = a << grow, b << grow, w + grow
        step_re, step_im = _newton_step(form, a, b, w)
        a, b = a - step_re, b - step_im
        # a step below 2^(-w/2) leaves an error near 2^-w: converged
        if w == top and max(abs(step_re), abs(step_im)) >> (w // 2) == 0:
            break
    return a >> extra, b >> extra


def _float_seeded_roots(poly, form, prec):
    """Aberth seeds of poly, whose sparse form is `form`, refined by
    Newton to prec plus guard bits: the exact points (a, b) that Newton
    returns at its scale 2^s, s = prec + NEWTON_GUARD_BITS, unrounded
    and unsnapped (see _pair).  Only the seeds on or near the real axis
    and above it are refined; a seed with Im z < -1e-7 (1 + |z|) comes
    back unrefined at scale 2^s, for _pair to count and replace by the
    exact conjugate of its partner.  A simple root at 0, where
    _float_ratio would divide 0 by 0, is the exact point (0, 0), and
    the seeds are those of poly / x (x^2 | poly is refused before)."""
    s = prec + NEWTON_GUARD_BITS
    coeffs, seed_form, zero = poly.coeffs, form, []
    if not coeffs[0]:
        coeffs, zero = coeffs[1:], [(0, 0)]
        seed_form = _sparse_form(coeffs)
    seeds = _aberth_seeds(coeffs, seed_form) if len(coeffs) > 1 else []
    return [
        _fixed(z, s) if z.imag < -1e-7 * (1 + abs(z)) else _newton(form, z, s)
        for z in seeds
    ] + zero, s


def _value_bound(form, a, b, s):
    """An integer m and a scale w with |p(z)| <= m / 2^w at the dyadic
    point z = (a + bi) / 2^s: |q(z)| from _sparse_eval plus its error
    bound, in the stepped form divided by an integer lower bound on
    |1 - z|, since there |p| = |q| / |1 - z|.  ConvergenceError at z = 1
    in the stepped form, where that division cannot bound p."""
    w = _scale(form, a, b, s)
    qr, qi, _, _, err = _sparse_eval(form, a, b, s, w)
    m = math.isqrt(qr * qr + qi * qi) + 1 + err
    if form[1]:
        low = math.isqrt(((1 << s) - a) ** 2 + b * b)  # <= 2^s |1 - z|
        if not low:
            raise ConvergenceError("the stepped form cannot bound p at z = 1")
        m = -(-(m << s) // low)
    return m, w


def _inclusion_disks(form, pts, s, digits):
    """Pairs (r_i, e_i) with radius r_i >= d |p(z_i)| / (|lc| prod_{j != i}
    |z_i - z_j|) and residual e_i >= |p(z_i)|, as mpf, at the d points z_i
    = (a_i + b_i i) / 2^s, one per root of the polynomial p of sparse
    form `form`.  ConvergenceError unless the disks |z - z_i| <= r_i are
    pairwise disjoint and every two points are more than 10^-(digits-10)
    apart: gap^2 * 10^(2(digits-10)) > 4^s.

    The union of these disks holds every root of p, and a connected
    component of m of them holds exactly m roots (Braess and Hadeler
    1973; Carstensen, Numer. Math. 1991), so pairwise disjoint disks
    hold one root each.  Each residual depends only on its own point and
    s: the exact conjugate of the point before it, as _pair emits them,
    takes that point's bound, since |p(conj z)| = |p(z)| for real p.  The
    gaps |z_i - z_j|^2 are exact integers at scale 4^s, and each point's
    product of them is formed on its own.  |p(z_i)| is bounded above by
    _value_bound, the product of gaps is rounded down and each radius is
    rounded up to a 41-bit dyadic, so every r_i is a rigorous upper bound.
    """
    d, lc = len(pts), form[0][-1][1]  # |lc| is the same in both forms
    gaps = [[(a - c) ** 2 + (b - e) ** 2 for c, e in pts] for a, b in pts]
    mantissas, exponents, residuals = [], [], []  # r_i <= mantissas[i] * 2^-exponents[i]
    for i, (a, b) in enumerate(pts):
        # |p(conj z)| = |p(z)| for real p: an exact conjugate reuses the bound
        if not (i and pts[i - 1] == (a, -b)):
            value, w = _value_bound(form, a, b, s)
            residual = mp.ldexp(mp.mpf(value, rounding="u"), -w)
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
    return [(mp.ldexp(u, -t), e) for u, t, e in zip(mantissas, exponents, residuals)]


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

    Builds the sparse form of p once (see _sparse_form) and runs
    _find_roots on it: one pipeline, each failure a ClosedFormError.
    Refuse an input whose estimated cost is above MAX_SECONDS, and a
    repeated factor (gcd(p, p') nonconstant); seed every root by an
    Aberth-Ehrlich iteration in double precision; refine each seed on or
    above the axis by fixed-point Newton steps up to the working
    precision (digits plus GUARD_DIGITS) plus NEWTON_GUARD_BITS.  Each
    returned ComplexRoot is built from the exact dyadic point (a, b, s)
    Newton returned.  Tiny real parts become 0, near-real roots are
    snapped onto the axis, and each root above it is emitted with its
    exact conjugate in place of the roots below it (see _pair); inclusion
    disks (see _inclusion_disks), pairwise disjoint with every two roots
    more than 10^-(digits-10) apart, and a residual bound, both from
    _value_bound, certify the set.  Each root carries its disk radius.
    Output is sorted by (modulus, |arg|, arg), which puts the
    growth-dominant root first; moduli within the certification
    tolerance count as equal, so rounding noise never decides the order
    of equal-modulus roots.  The keys are exact integers of the dyadic
    points (see _order).
    """
    _check_digits(digits)
    if not poly:
        raise ValueError("zero polynomial has no root set")
    if poly.degree < 1:
        return ()
    return _find_roots(poly, _sparse_form(poly.coeffs), digits)


def _find_roots(poly, form, digits):
    """find_roots' pipeline on poly, of degree >= 1, and its sparse form."""
    seconds = 1e-5 * poly.degree**2 * (1 + (digits / 92) ** 1.6)
    if seconds > MAX_SECONDS:
        raise ClosedFormError(
            f"a closed form of degree {poly.degree} at {digits} digits is estimated "
            f"at {seconds:.3g} s, more than the {MAX_SECONDS} s limit"
        )
    common = poly_gcd(poly, poly.derivative())
    if common.degree >= 1:
        raise RepeatedRootError(f"repeated factor (gcd with derivative is {common})")
    with mp.workdps(digits + GUARD_DIGITS):
        prec = mp.prec
        pts, s = _float_seeded_roots(poly, form, prec)
        pts = _pair(pts, s, digits)
        disks = _inclusion_disks(form, pts, s, digits)
        bound = mp.mpf(10) ** (-(digits - 10)) * max(1, max(abs(c) for c in poly.coeffs))
        for _, resid in disks:
            if resid > bound:
                raise ConvergenceError(f"residual {mp.nstr(resid, 5)} above certification bound")
    return tuple(
        ComplexRoot((*pts[i], s), disks[i][1], disks[i][0]) for i in _order(pts, s, digits)
    )


@dataclass(frozen=True)
class PartialFraction:
    """poly_part: exact Fraction coefficients of the division quotient,
    indexed by n (empty for proper fractions).  poles and residue_coeffs
    are aligned and sorted with the smallest-modulus pole first."""

    poly_part: tuple
    poles: tuple
    residue_coeffs: tuple
    precision_digits: int = 50


def _residue(nform, dform, a, b, s, prec):
    """r = -N(z) / (z D'(z)) at z = (a + bi) / 2^s as integers (re, im,
    k) with r = (re + im i) / 2^k to about prec + 32 bits: N from its
    plain taps `nform` and z D' from D's sparse form `dform`, both read
    by _sparse_eval, then one exact complex division, floored.  In the
    stepped form (only where sparser and D(1) != 0) q = (1 - x) D, and
    z q' = (1 - z) z D' - z D gives z D' = (z q' (1 - z) + z q) /
    (1 - z)^2, so N is multiplied by (1 - z)^2."""
    w = max(_scale(nform, a, b, s), _scale(dform, a, b, s))
    nr, ni, _, _, _ = _sparse_eval(nform, a, b, s, w)
    qr, qi, dr, di, _ = _sparse_eval(dform, a, b, s, w)
    e = 0  # N / (z D') = (nr + ni i) / (dr + di i) / 2^e
    if dform[1]:
        ur, ui = (1 << s) - a, -b  # 1 - z at scale 2^s
        dr, di = dr * ur - di * ui + qr * a - qi * b, dr * ui + di * ur + qr * b + qi * a
        vr, vi = ur * ur - ui * ui, 2 * ur * ui  # (1 - z)^2
        nr, ni = nr * vr - ni * vi, nr * vi + ni * vr
        e = s
    norm = dr * dr + di * di
    # r = -(nr + ni i)(dr - di i) / |d|^2 / 2^e; keep prec + 32 bits of it
    t = max(0, prec + 32 + max(abs(dr), abs(di)).bit_length() - max(abs(nr), abs(ni)).bit_length())
    re = -((nr * dr + ni * di) << t) // norm
    im = -((ni * dr - nr * di) << t) // norm
    return re, im, t + e


def partial_fractions(gf, digits=50):
    """Simple-pole expansion of a reduced RationalGF, as
    genfun.composition_gf returns it, at the given precision: a shared
    factor would show up as a spurious pole or a repeated root.  Takes
    the certified, separated poles from find_roots, then checks that the
    residues reproduce the n = 0 coefficient.  Between the roots and the
    returned mpc residues everything runs on each pole's exact point
    (a, b, s), read from ComplexRoot.point: each residue comes from N's
    plain nonzero taps and D's sparse form, built once for roots and
    residues (stepped only where sparser and D(1) != 0), read by
    _sparse_eval at 64 bits past the working precision, and one exact
    division (see _residue).  The exact conjugate of the pole before it,
    as find_roots sorts each pair, takes the conjugate of that residue.
    """
    _check_digits(digits)
    num, den = gf.num, gf.den
    if not num or den.degree < 1:
        # the zero series, or den is the constant 1: the series is num itself
        return PartialFraction(tuple(map(Fraction, num.coeffs)), (), (), digits)
    quot, _ = divmod_fractions(num, den)
    dform = _sparse_form(den.coeffs)
    poles = _find_roots(den, dform, digits)
    nform = ([(e, c) for e, c in enumerate(num.coeffs) if c], False)
    with mp.workdps(digits + GUARD_DIGITS):
        prec = mp.prec
        parts = []
        for i, pole in enumerate(poles):
            a, b, s = pole.point
            if i and poles[i - 1].point == (a, -b, s):
                # r(conj z) = conj r(z) for real N and D
                re, im, k = parts[-1]
                parts.append((re, -im, k))
            else:
                parts.append(_residue(nform, dform, a, b, s, prec))
        top = max(k for _, _, k in parts)
        real = sum(re << (top - k) for re, _, k in parts)
        imag = sum(im << (top - k) for _, im, k in parts)
        head = quot[0] if quot else Fraction(0)
        # c(0) = head + sum r_j within 10^-(digits - GUARD_DIGITS)
        tol = 10 ** (digits - GUARD_DIGITS)
        if abs(Fraction(real, 1 << top) + head - num[0]) * tol > 1 or abs(imag) * tol > 1 << top:
            raise ConvergenceError("residues fail the n = 0 normalization check")
        residues = tuple(mp.mpc(mp.ldexp(re, -k), mp.ldexp(im, -k)) for re, im, k in parts)
    return PartialFraction(tuple(quot), poles, residues, digits)


EvalResult = namedtuple("EvalResult", ["value", "imag_residual"])


def eval_closed(pf, n):
    """Evaluate the closed form at integer n >= 0.

    Returns (value, imag_residual): the real part of the pole sum plus
    the exact quotient term, and the leftover imaginary magnitude.  The
    imaginary part would be exactly zero in ideal arithmetic (conjugate
    poles carry conjugate residues), so its size is a direct error
    gauge for the reported value.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    with mp.workdps(pf.precision_digits + GUARD_DIGITS):
        acc = mp.mpc(0)
        if n < len(pf.poly_part):
            q = pf.poly_part[n]
            acc += mp.mpf(q.numerator) / q.denominator
        for pole, r in zip(pf.poles, pf.residue_coeffs):
            acc += r * pole.value ** (-n)
        value = acc.real
        residual = abs(acc.imag)
    return EvalResult(value, residual)


@dataclass(frozen=True)
class DominanceReport:
    """Pole layout relative to the unit circle, read off the inclusion
    disks.

    classifications[i] labels poles[i] "inside" or "outside" when its
    disk lies wholly on that side of |z| = 1, and "on" when the disk
    meets the circle: either the pole lies on it, or the precision is
    too low to tell.  growth_rate is 1/min|alpha|.  unique_dominant says
    the modulus intervals [|z| - r, |z| + r] of the first two poles are
    disjoint.  nearest_integer_valid is True exactly when the dominant
    pole is unique and every other pole lies outside the unit circle,
    which makes the non-dominant terms decay to zero so rounding the
    dominant term eventually recovers the exact counts.
    """

    poles: tuple
    classifications: tuple
    growth_rate: object
    unique_dominant: bool
    nearest_integer_valid: bool


def _modulus_interval(root):
    """Fractions lo <= |z| - r and hi >= |z| + r for a root's disk: the
    point (a + bi) / 2^s and the radius's exact dyadic m 2^e as integers
    at the scale 2^k, k = max(s, -e), and the modulus bracketed by isqrt."""
    a, b, s = root.point
    m, e = root.radius.man_exp
    k = max(s, -e)
    square = (a * a + b * b) << (2 * (k - s))
    low = math.isqrt(square)
    high = low + (low * low < square)
    r = m << (k + e)
    return Fraction(low - r, 1 << k), Fraction(high + r, 1 << k)


def dominance_report(pf):
    """Classify the poles of a PartialFraction against the unit circle.

    Reads pf.poles and their disk radii, so the roots found for the
    partial fraction are the ones classified, and every label and the
    uniqueness verdict hold for the true poles.
    """
    if not pf.poles:
        return DominanceReport((), (), mp.mpf(0), False, False)
    poles = pf.poles
    spans = [_modulus_interval(p) for p in poles]
    labels = tuple("inside" if high < 1 else "outside" if low > 1 else "on" for low, high in spans)
    unique = len(poles) == 1 or spans[0][1] < spans[1][0] or spans[1][1] < spans[0][0]
    valid = unique and all(label == "outside" for label in labels[1:])
    with mp.workdps(pf.precision_digits + GUARD_DIGITS):
        growth = 1 / poles[0].modulus
    return DominanceReport(poles, labels, growth, unique, valid)
