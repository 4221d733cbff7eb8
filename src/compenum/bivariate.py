"""Joint counting of compositions by total and by number of parts.

c(n, m) is the number of compositions of n using exactly m parts, all
drawn from the part set.  Row n is the x^n coefficient of the bivariate
generating function C(x, y) = 1/(1 - y*S(x)), a polynomial in y.  Every
entry of rows 0..n is below 2^b, b = genfun.composition_bits(A, n), so
at y = 2^(8w) with w = ceil(b / 8) bytes the x^n coefficient holds row n
packed in w-byte slots, with no carries between them.  One exact series
expansion (polyring.expand on genfun.length_parts, where every multiply
by y is a shift and every +-1 tap one addition) does all the work; the
row is decoded by slicing the bytes of c_n.  The O(n^2 * |A|) dynamic
program and the S(x)^m slices live in the oracle module, as
independent cross-checks.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from math import comb

from .genfun import composition_bits, length_parts
from .polyring import expand


class BivariateTable(namedtuple("BivariateTable", "limit entries")):
    """(limit+1) x (limit+1) triangle of exact counts.

    entries[n][m] = compositions of n with exactly m parts.  Entries
    with m > n are stored but always zero (each part is at least 1).
    count(n, m) replaces the tuple's count(value).
    """

    __slots__ = ()

    def count(self, n, m):
        """c(n, m); zero outside the tabulated range is an error for n
        but fine for m (no composition has that many parts)."""
        if not (0 <= n <= self.limit):
            raise ValueError(f"n must be in 0..{self.limit}")
        if m < 0:
            raise ValueError("m must be nonnegative")
        if m > self.limit:
            return 0
        return self.entries[n][m]

    def row(self, n):
        """All counts for total n, indexed by number of parts."""
        if not (0 <= n <= self.limit):
            raise ValueError(f"n must be in 0..{self.limit}")
        return self.entries[n]

    def marginal(self, n):
        """Total composition count of n, summed over all lengths."""
        return sum(self.row(n))


def packed_width(A, n):
    """Bytes per slot of the packed rows up to n: their counts have at
    most composition_bits(A, n) bits."""
    return -(-composition_bits(A, n) // 8)


def _packed_terms(A, n):
    width = packed_width(A, n)
    num, low, high = length_parts(A)
    return expand(num.coeffs, low.coeffs, high.coeffs, 8 * width), width


def _unpack_row(value, slots, width):
    raw = value.to_bytes(slots * width, "little")
    return tuple(int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width))


def length_row(A, n):
    """Row n, c(n, 0..n), off one coefficient of C(x, 2^(8w)); the
    expander holds only its last den.degree packed rows, in blocks of 57
    (polyring.expand), not the whole history.

    The row streams through polyring.expand, not the halving kernel of
    RationalGF.coefficient: at y = 2^(8w) the denominator coefficients
    are about 8w bits each, and halving squares them at every step.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    terms, width = _packed_terms(A, n)
    return _unpack_row(next(islice(terms, n, None)), n + 1, width)


def bivariate_table(A, limit):
    """Rows 0..limit of the joint table, off one series of C(x, 2^(8w))."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    terms, width = _packed_terms(A, limit)
    rows = (_unpack_row(c, limit + 1, width) for c in islice(terms, limit + 1))
    return BivariateTable(limit, tuple(rows))


def odd_parts_by_length(n, m):
    """Closed form for the odd-part table: compositions of n into
    exactly m odd parts number binomial((n+m)/2 - 1, m - 1) when n and
    m have the same parity, and zero otherwise.  (Subtract 1 from each
    part and halve: the m odd parts become m nonnegative evens summing
    to n - m, i.e. a weak composition of (n-m)/2 into m parts.)
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if n == 0 or m == 0:
        return 1 if n == m else 0
    if (n - m) % 2 or m > n:
        return 0
    return comb((n + m) // 2 - 1, m - 1)
