"""Eventually periodic subsets of the positive integers.

A PartSet stores a period (modulus), the residue classes that belong to
the set beyond finitely many exceptions, and the exceptional values that
are added or removed against that pattern.  These are exactly the part
sets whose indicator series sum_{a in A} x^a is a rational function,
which is what keeps every generating function downstream a ratio of
integer polynomials with a finite recurrence.

Construction canonicalizes: exceptions that merely restate the periodic
pattern are dropped, so two PartSets with identical membership compare
equal field by field.  Values are immutable, hashable named tuples.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .polyring import IntPolynomial

# parse_setspec refuses any integer above this: the generating function's
# lists grow with the modulus and the largest exception (`count
# ge:30000000 5` died with a MemoryError).  At the bound, on a 2-core host
# with CPython 3.11, `count` of mod:, set:, ge: and ap:1000000:1 at n = 5
# takes 0.6 to 1.8 s and at most 206 MB; `count mod:720720:1 5` 1.3 s.
MAX_VALUE = 1_000_000


class SetSpecError(ValueError):
    """Malformed set expression; ``position`` is the offset of the problem."""

    def __init__(self, message, position):
        super().__init__(f"{message} (position {position})")
        self.position = position


def _ints(values):
    # every value an int and none a bool, checked once per type
    return all(issubclass(t, int) and t is not bool for t in set(map(type, values)))


class PartSet(namedtuple("PartSet", "modulus residues added removed")):
    """modulus k, the residues in 0..k-1 of the periodic pattern, and
    the added and removed exception values, all frozensets."""

    __slots__ = ()

    def __new__(cls, modulus, residues=frozenset(), added=frozenset(), removed=frozenset()):
        k = modulus
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError("modulus must be a positive integer")
        residues = frozenset(residues)
        added = frozenset(added)
        removed = frozenset(removed)
        if not _ints(residues) or residues and not 0 <= min(residues) <= max(residues) < k:
            raise ValueError("residues must lie in 0..modulus-1")
        for exc in (added, removed):
            if not _ints(exc) or exc and min(exc) < 1:
                raise ValueError("exception values must be positive integers")
        if added & removed:
            raise ValueError("added and removed exceptions overlap")
        # canonical form: keep only exceptions that contradict the pattern
        added = frozenset(v for v in added if v % k not in residues)
        removed = frozenset(v for v in removed if v % k in residues)
        return super().__new__(cls, k, residues, added, removed)

    def __str__(self):
        """The set expression that parses back to this PartSet."""

        def join(values):
            return ",".join(str(v) for v in sorted(values))

        if self.modulus == 1 and not self.residues:
            return "set:" + join(self.added)
        base = "all" if self.modulus == 1 else f"mod:{self.modulus}:" + join(self.residues)
        if self.added:
            base += "+" + join(self.added)
        if self.removed:
            base += "-" + join(self.removed)
        return base

    # -- membership ----------------------------------------------------

    def __contains__(self, v):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError("part values are positive integers")
        if v in self.added:
            return True
        if v in self.removed:
            return False
        return v % self.modulus in self.residues

    def least(self):
        """The smallest member, or None for the empty set.  A member below
        the modulus k is its own residue, found by a scan in C; where none
        is, each class starts at a removed value or at k (so there are at
        most len(removed) + 1), and is stepped by k past removed."""
        k, removed = self.modulus, self.removed.__contains__
        low = itertools.filterfalse(removed, filter(self.residues.__contains__, range(1, k)))
        firsts = list(itertools.islice(low, 1)) or [
            next(itertools.filterfalse(removed, itertools.count(r or k, k))) for r in self.residues
        ]
        return min(itertools.chain(self.added, firsts), default=None)

    def members_upto(self, n):
        """Sorted members <= n, walking residue classes rather than scanning."""
        out = set()
        k = self.modulus
        for r in self.residues:
            first = r if r >= 1 else k
            out.update(range(first, n + 1, k))
        out -= self.removed
        out.update(v for v in self.added if v <= n)
        return sorted(out)

    # -- algebra -------------------------------------------------------

    def complement(self):
        """Z>0 minus this set.  An exact involution: residues flip within
        0..k-1 and the two exception lists swap roles."""
        return PartSet(
            self.modulus,
            frozenset(range(self.modulus)) - self.residues,
            added=self.removed,
            removed=self.added,
        )

    def series_form(self):
        """(P, Q, k) with  sum_{a in A} x^a = P(x) + Q(x)/(1 - x^k).

        Each allowed residue r contributes one representative monomial
        x^{r0} to Q, with r0 = r for r >= 1 and r0 = k for the class of
        multiples of k (so that class shows up as x^k, the shape the
        avoid-multiples denominators are usually written in).  The
        finite exceptions enter P with sign.  P(0) = Q(0) = 0 and
        deg Q <= k.
        """
        k = self.modulus
        q = [0] * (k + 1)
        for r in self.residues:
            q[r if r >= 1 else k] = 1
        top = max(self.added | self.removed, default=0)
        p = [0] * (top + 1)
        for v in self.added:
            p[v] += 1
        for v in self.removed:
            p[v] -= 1
        return IntPolynomial(p), IntPolynomial(q), k

    # -- constructors ----------------------------------------------------

    @classmethod
    def everything(cls):
        return cls(1, frozenset({0}))

    @classmethod
    def finite(cls, values):
        return cls(1, frozenset(), added=frozenset(values))

    @classmethod
    def from_threshold(cls, t):
        """{t, t+1, t+2, ...} for t >= 1."""
        if t < 1:
            raise ValueError("threshold must be >= 1")
        return cls(1, frozenset({0}), removed=frozenset(range(1, t)))

    @classmethod
    def arithmetic_progression(cls, first, step):
        """{first + j*step : j >= 0} for any first, step >= 1, the set
        the ``ap:first:step`` spec names.

        When first > step, the members of the residue class below
        ``first`` are carried as removed exceptions.
        """
        if first < 1 or step < 1:
            raise ValueError("first and step must be >= 1")
        r = first % step
        low = r if r >= 1 else step
        return cls(step, frozenset({r}), removed=frozenset(range(low, first, step)))


# -- the set-expression grammar ----------------------------------------
#
#   setspec := term | "not:" setspec
#   term    := base ["+" INT ("," INT)*] ["-" INT ("," INT)*]
#   base    := "all" | "ge:" INT | "set:" [INT ("," INT)*]
#            | "mod:" INT ":" [INT ("," INT)*] | "ap:" INT ":" INT
#
# ASCII only, no whitespace.  INT is a run of decimal digits, at most
# MAX_VALUE; 0 is legal only where a residue is expected.


def parse_setspec(text):
    """Parse a set expression into a PartSet.

    ``ap:a:b`` is {a + jb : j >= 0} for any a, b >= 1;
    ``mod:k:r1,r2`` is every positive integer congruent to a listed
    residue (``mod:k:`` lists none); ``ge:t`` is {t, t+1, ...}; ``set:``
    lists a finite set (possibly empty); ``not:`` complements within
    Z>0; ``all`` is Z>0.  A ``+v,...`` list after a base term adds
    values to it, then a ``-v,...`` list removes values, which is the
    form str(PartSet) prints.  Raises SetSpecError with the offending
    position on malformed input and on any integer above MAX_VALUE.
    """
    if not isinstance(text, str):
        raise SetSpecError("set expression must be a string", 0)
    result, end = _parse_spec(text, 0)
    if end != len(text):
        raise SetSpecError("trailing input after set expression", end)
    return result


def _parse_spec(text, pos):
    if text.startswith("not:", pos):
        inner, end = _parse_spec(text, pos + 4)
        return inner.complement(), end
    base, end = _parse_base(text, pos)
    if not text.startswith(("+", "-"), end):
        return base, end  # no exceptions to merge: the base is already checked and canonical
    plus = minus = {}
    if text.startswith("+", end):
        plus, end = _parse_parts(text, end + 1, allow_empty=False)
    if text.startswith("-", end):
        minus, end = _parse_parts(text, end + 1, allow_empty=False)
    for v, vpos in minus.items():
        if v in plus:
            raise SetSpecError("value both added and removed", vpos)
    added = (base.added - minus.keys()) | plus.keys()
    removed = (base.removed - plus.keys()) | minus.keys()
    return PartSet(base.modulus, base.residues, added, removed), end


def _parse_base(text, pos):
    if text.startswith("all", pos):
        return PartSet.everything(), pos + 3
    if text.startswith("ge:", pos):
        t, end = _parse_int(text, pos + 3)
        if t < 1:
            raise SetSpecError("ge threshold must be >= 1", pos + 3)
        return PartSet.from_threshold(t), end
    if text.startswith("set:", pos):
        values, end = _parse_parts(text, pos + 4, allow_empty=True)
        return PartSet.finite(values), end
    if text.startswith("mod:", pos):
        k, after = _parse_int(text, pos + 4)
        if k < 1:
            raise SetSpecError("modulus must be >= 1", pos + 4)
        after = _expect_colon(text, after)
        residues, end = _parse_int_list(text, after, allow_empty=True)
        for r, rpos in residues:
            if r >= k:
                raise SetSpecError("residue must be smaller than the modulus", rpos)
        return PartSet(k, frozenset(r for r, _ in residues)), end
    if text.startswith("ap:", pos):
        m, after = _parse_int(text, pos + 3)
        if m < 1:
            raise SetSpecError("ap start must be >= 1", pos + 3)
        after = _expect_colon(text, after)
        k, end = _parse_int(text, after)
        if k < 1:
            raise SetSpecError("ap step must be >= 1", after)
        return PartSet.arithmetic_progression(m, k), end
    raise SetSpecError("expected one of all, ge:, set:, mod:, ap:, not:", pos)


def _parse_parts(text, pos, allow_empty):
    """A list of part values, each >= 1, as {value: position}."""
    values, end = _parse_int_list(text, pos, allow_empty)
    for v, vpos in values:
        if v < 1:
            raise SetSpecError("part values must be >= 1", vpos)
    return dict(values), end


def _parse_int(text, pos):
    end = pos
    while end < len(text) and "0" <= text[end] <= "9":
        end += 1
    if end == pos:
        raise SetSpecError("expected an integer", pos)
    digits = text[pos:end].lstrip("0")
    if len(digits) > len(str(MAX_VALUE)) or int(digits or 0) > MAX_VALUE:
        raise SetSpecError(f"integer above {MAX_VALUE}", pos)
    return int(digits or 0), end


def _expect_colon(text, pos):
    if pos >= len(text) or text[pos] != ":":
        raise SetSpecError("expected ':'", pos)
    return pos + 1


def _parse_int_list(text, pos, allow_empty):
    if allow_empty and not "0" <= text[pos : pos + 1] <= "9":
        return [], pos
    values = []
    while True:
        v, end = _parse_int(text, pos)
        values.append((v, pos))
        if not text.startswith(",", end):
            return values, end
        pos = end + 1
