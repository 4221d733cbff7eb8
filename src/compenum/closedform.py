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

All numerics run through mpmath at a caller-chosen precision plus guard
digits.  Roots come from mpmath.polyroots, which is deterministic, so
repeated runs give identical output; each root is then certified by its
residual and conjugate roots are paired exactly.
Only squarefree denominators are supported; a repeated factor makes the
simple-pole formula wrong, and find_roots refuses with
RepeatedRootError instead of returning garbage.

Since the generating functions here have den(0) = 1, a root inside the
unit circle means exponential coefficient growth at rate 1/|alpha|; the
dominance report says when rounding the single leading term recovers
the exact integer counts.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp

from .polyring import divmod_fractions, poly_gcd

GUARD_DIGITS = 15


class ClosedFormError(Exception):
    """Base class for closed-form extraction failures."""


class RepeatedRootError(ClosedFormError):
    """The polynomial shares a factor with its derivative."""


class ConvergenceError(ClosedFormError):
    """Numeric root refinement could not certify the requested accuracy."""


def _check_digits(digits):
    if isinstance(digits, bool) or not isinstance(digits, int) or digits < 16:
        raise ValueError("digits must be an integer >= 16")


@dataclass(frozen=True)
class ComplexRoot:
    """One denominator root: value (mpc), |poly(value)| residual, and
    multiplicity (always 1 here, squarefree inputs only)."""

    value: object
    residual: object
    multiplicity: int = 1

    @property
    def modulus(self):
        return mp.fabs(self.value)

    @property
    def re(self):
        return self.value.real

    @property
    def im(self):
        return self.value.imag


def find_roots(poly, digits=50):
    """All complex roots of an integer polynomial, certified to `digits`.

    The roots come from mpmath.polyroots (deterministic, so repeated
    runs agree).  Near-real roots are snapped onto the axis, conjugate
    pairs are averaged so the returned set is exactly closed under
    conjugation, and every root must pass a residual bound.  Output is
    sorted by (modulus, |arg|, arg), which puts the growth-dominant root
    first; moduli within the certification tolerance count as equal, so
    rounding noise never decides the order of equal-modulus roots.
    """
    _check_digits(digits)
    if not poly:
        raise ValueError("zero polynomial has no root set")
    deg = poly.degree
    if deg < 1:
        return ()
    common = poly_gcd(poly, poly.derivative())
    if common.degree >= 1:
        raise RepeatedRootError(f"repeated factor (gcd with derivative is {common})")
    maxc = max(abs(c) for c in poly.coeffs)
    with mp.workdps(digits + GUARD_DIGITS):
        try:
            zs = mp.polyroots(poly.coeffs[::-1], maxsteps=400, extraprec=20)
        except mp.NoConvergence:
            raise ConvergenceError("root iteration did not settle") from None

        imag_snap = mp.mpf(10) ** (-(digits - 8))
        snapped = []
        for z in zs:
            if abs(z.imag) <= imag_snap * (1 + abs(z)):
                snapped.append(mp.mpc(z.real, 0))
            else:
                snapped.append(z)
        reals = [z for z in snapped if z.imag == 0]
        upper = [z for z in snapped if z.imag > 0]
        lower = [z for z in snapped if z.imag < 0]
        if len(upper) != len(lower):
            raise ConvergenceError("complex roots do not split into conjugate pairs")
        tol = mp.mpf(10) ** (-(digits - 10))
        taken = [False] * len(lower)
        paired = []
        for z in upper:
            best = None
            best_gap = None
            for idx, w in enumerate(lower):
                if taken[idx]:
                    continue
                gap = abs(z - mp.conj(w))
                if best is None or gap < best_gap:
                    best, best_gap = idx, gap
            if best is None or best_gap > tol * (1 + abs(z)):
                raise ConvergenceError("complex roots do not split into conjugate pairs")
            taken[best] = True
            avg = (z + mp.conj(lower[best])) / 2
            paired.extend((avg, mp.conj(avg)))

        bound = tol * max(1, maxc)
        roots = []
        for z in reals + paired:
            resid = abs(poly(z))
            if resid > bound:
                raise ConvergenceError(f"residual {mp.nstr(resid, 5)} above certification bound")
            roots.append(ComplexRoot(mp.mpc(z), resid))
        roots.sort(key=lambda r: r.modulus)
        tied = []  # runs of roots whose moduli agree within tol
        for r in roots:
            if tied and r.modulus - tied[-1][0].modulus <= tol:
                tied[-1].append(r)
            else:
                tied.append([r])
        roots = [
            r
            for run in tied
            for r in sorted(run, key=lambda r: (abs(mp.arg(r.value)), mp.arg(r.value)))
        ]
    return tuple(roots)


@dataclass(frozen=True)
class PartialFraction:
    """poly_part: exact Fraction coefficients of the division quotient,
    indexed by n (empty for proper fractions).  poles and residue_coeffs
    are aligned and sorted with the smallest-modulus pole first."""

    poly_part: tuple
    poles: tuple
    residue_coeffs: tuple
    precision_digits: int = 50


def partial_fractions(gf, digits=50):
    """Simple-pole expansion of a RationalGF at the given precision.

    Reduces the fraction first (a shared factor would show up as a
    spurious pole with zero residue, or worse as a repeated root), then
    checks that the poles are numerically separable and that the
    residues reproduce the n = 0 coefficient.
    """
    _check_digits(digits)
    g = gf.reduce()
    num, den = g.num, g.den
    if den.degree < 1:
        # den is the constant 1: the series is the numerator itself
        return PartialFraction(
            tuple(Fraction(c) for c in num.coeffs) if num else (),
            (),
            (),
            digits,
        )
    quot, _ = divmod_fractions(num, den)
    poles = find_roots(den, digits)
    with mp.workdps(digits + GUARD_DIGITS):
        sep = mp.mpf(10) ** (-(digits - 10))
        for i in range(len(poles)):
            for j in range(i + 1, len(poles)):
                if abs(poles[i].value - poles[j].value) <= sep:
                    raise ConvergenceError("poles too close to separate at this precision")
        dprime = den.derivative()
        residues = []
        for pole in poles:
            a = pole.value
            residues.append(-num(a) / (a * dprime(a)))
        head = quot[0] if quot else Fraction(0)
        recon = mp.mpf(head.numerator) / head.denominator + mp.fsum(
            r.real for r in residues
        )
        stray = abs(mp.fsum(r.imag for r in residues))
        tol = mp.mpf(10) ** (-(digits - GUARD_DIGITS))
        if abs(recon - num[0]) > tol or stray > tol:
            raise ConvergenceError("residues fail the n = 0 normalization check")
    return PartialFraction(tuple(quot), poles, tuple(residues), digits)


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
    """Pole layout relative to the unit circle.

    classifications[i] labels poles[i] as "inside", "on", or "outside".
    growth_rate is 1/min|alpha|.  nearest_integer_valid is True exactly
    when one pole alone has minimal modulus and every other pole lies
    strictly outside the unit circle, which makes the non-dominant terms
    decay to zero so rounding the dominant term eventually recovers the
    exact counts.
    """

    poles: tuple
    classifications: tuple
    growth_rate: object
    unique_dominant: bool
    nearest_integer_valid: bool
    tolerance: object = field(default=None, repr=False)


def dominance_report(pf):
    """Classify the poles of a PartialFraction against the unit circle.

    Reads pf.poles at pf.precision_digits, so the roots found for the
    partial fraction are the ones classified.
    """
    if not pf.poles:
        return DominanceReport((), (), mp.mpf(0), False, False, mp.mpf(0))
    poles = pf.poles
    with mp.workdps(pf.precision_digits + GUARD_DIGITS):
        tol = mp.mpf(10) ** (-(pf.precision_digits - GUARD_DIGITS))
        labels = []
        for p in poles:
            m = p.modulus
            if m < 1 - tol:
                labels.append("inside")
            elif m > 1 + tol:
                labels.append("outside")
            else:
                labels.append("on")
        low = poles[0].modulus
        unique = len(poles) == 1 or poles[1].modulus - low > tol
        valid = unique and all(p.modulus > 1 + tol for p in poles[1:])
        growth = 1 / low
    return DominanceReport(poles, tuple(labels), growth, unique, valid, tol)
