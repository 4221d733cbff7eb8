"""Composition counting through rational generating functions.

A composition of n is an ordered tuple of parts summing to n.  If the
parts are drawn from a set A with indicator series S(x) = sum_{a in A}
x^a, the compositions with exactly m parts are generated by S(x)^m, and
summing the geometric series over m gives the counting function's
generating function

    C(x) = 1 / (1 - S(x)),   C(0) = 1 for the empty composition.

For eventually periodic A the indicator series is rational, so C is a
ratio of integer polynomials and the counts satisfy a fixed-depth linear
recurrence.
"""

from __future__ import annotations

from .polyring import IntPolynomial, RationalGF

_ONE = IntPolynomial((1,))


def composition_gf(A):
    """C(x) = 1/(1 - S(x)) as a reduced RationalGF.

    With the part series in the form S = P + Q/(1 - x^k), clearing the
    denominator gives

        C = (1 - x^k) / ((1 - x^k)(1 - P) - Q).

    P(0) = Q(0) = 0 makes the denominator constant term 1, so the series
    expansion and the recurrence view are both well defined.  The result
    is reduced: numerator and denominator share no nonconstant factor,
    which the closed-form machinery relies on (every denominator root
    must be a genuine pole).
    """
    P, Q, k = A.series_form()
    cyc = IntPolynomial((1,) + (0,) * (k - 1) + (-1,))  # 1 - x^k
    return RationalGF(cyc, cyc * (_ONE - P) - Q).reduce()


def composition_series(A, order):
    """count(A, n) for n = 0..order, in one series expansion."""
    return composition_gf(A).series(order)


def count(A, n):
    """c_A(n): the number of compositions of n with all parts in A.

    c_A(0) = 1 by the empty-composition convention.  Read off the
    generating function with RationalGF.coefficient, not by direct set
    iteration; the plain DP form lives in the oracle module as an
    independent cross-check.
    """
    return composition_gf(A).coefficient(n)


def length_slice_series(A, m, order):
    """Coefficients of S(x)^m up to x^order: compositions with exactly m parts.

    m = 0 yields the series 1 (the empty composition).  Plain truncated
    convolution; the bivariate module cross-checks these slices against
    its dynamic program.
    """
    if m < 0:
        raise ValueError("number of parts must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    members = A.members_upto(order)
    acc = [1] + [0] * order
    for _ in range(m):
        nxt = [0] * (order + 1)
        for i, c in enumerate(acc):
            if c:
                for v in members:
                    if i + v > order:
                        break
                    nxt[i + v] += c
        acc = nxt
    return tuple(acc)
