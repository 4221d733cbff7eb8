"""Reference arithmetic the benchmark checks compenum's answers against.

Nothing here imports compenum.  A part set is described by the
benchmark's own `Parts` value, built together with the setspec string
that names it, so the program sees only the string and the checks never
depend on the program's parser or its `str(PartSet)`.

Routes kept apart from the program's pipeline:

* `direct_counts`: the defining sum c(n) = sum over parts a <= n of
  c(n - a), with the parts of one residue class summed through a
  prefix sum over that class (O(n) per class instead of O(n^2)).
* `unreduced_gf`: C = (1 - x^k) / ((1 - x^k)(1 - P) - Q), never reduced.
* `coefficient_mod`: [x^n] N/D mod p by Bostan-Mori halving with
  Kronecker-packed products.
* `reduced_degree` (a gcd over GF(p)) and `growth_rate` only shape the
  inputs: recurrence order, size of n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

PRIME = (1 << 61) - 1


@dataclass(frozen=True)
class Parts:
    """Residue classes modulo `modulus` plus finite exceptions.

    Exceptions that restate the periodic pattern are dropped on
    construction.  `spec` is the setspec string the program is given.
    """

    modulus: int
    residues: frozenset
    added: frozenset = frozenset()
    removed: frozenset = frozenset()
    spec: str = field(default="", compare=False)

    def __post_init__(self):
        k = self.modulus
        object.__setattr__(self, "residues", frozenset(self.residues))
        object.__setattr__(
            self, "added", frozenset(v for v in self.added if v % k not in self.residues)
        )
        object.__setattr__(
            self, "removed", frozenset(v for v in self.removed if v % k in self.residues)
        )

    def __contains__(self, v):
        if v in self.added:
            return True
        if v in self.removed:
            return False
        return v % self.modulus in self.residues


def everything():
    return Parts(1, {0}, spec="all")


def at_least(t):
    return Parts(1, {0}, removed=range(1, t), spec=f"ge:{t}")


def finite(values):
    values = sorted(set(values))
    return Parts(1, (), added=values, spec="set:" + ",".join(map(str, values)))


def residue_classes(k, residues):
    residues = sorted(set(residues))
    return Parts(k, residues, spec=f"mod:{k}:" + ",".join(map(str, residues)))


def progression(first, step):
    """{first + j*step}; the grammar requires 1 <= first <= step."""
    return Parts(step, {first % step}, spec=f"ap:{first}:{step}")


def negate(parts):
    return Parts(
        parts.modulus,
        frozenset(range(parts.modulus)) - parts.residues,
        added=parts.removed,
        removed=parts.added,
        spec="not:" + parts.spec,
    )


# -- direct counts ----------------------------------------------------------


def direct_counts(parts, n, mod=None, weight=1):
    """c(0)..c(n), each part weighted by `weight` (1 gives plain counts).

    c(m) = weight * sum over parts a <= m of c(m - a).  For a residue
    class whose least member is s, the parts s, s+k, s+2k, ... contribute
    T[m - s], where T[j] = c(j) + c(j - k) + c(j - 2k) + ...
    """
    k = parts.modulus
    starts = sorted(r if r else k for r in parts.residues)
    added = sorted(parts.added)
    removed = sorted(parts.removed)
    c = [0] * (n + 1)
    tail = [0] * (n + 1)
    c[0] = tail[0] = 1
    for m in range(1, n + 1):
        acc = 0
        for s in starts:
            if s > m:
                break
            acc += tail[m - s]
        for v in added:
            if v > m:
                break
            acc += c[m - v]
        for v in removed:
            if v > m:
                break
            acc -= c[m - v]
        if weight != 1:
            acc *= weight
        back = tail[m - k] if m >= k else 0
        if mod is None:
            c[m] = acc
            tail[m] = acc + back
        else:
            c[m] = acc % mod
            tail[m] = (c[m] + back) % mod
    return c


# -- polynomials as coefficient lists (index = exponent) ---------------------


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_sub(a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return trim(out)


def unreduced_gf(parts):
    """(N, D) with N/D = 1/(1 - S(x)) and D(0) = 1, not reduced."""
    k = parts.modulus
    cyc = [1] + [0] * (k - 1) + [-1]
    q = [0] * (k + 1)
    for r in parts.residues:
        q[r if r else k] = 1
    top = max(parts.added | parts.removed, default=0)
    p = [0] * (top + 1)
    for v in parts.added:
        p[v] += 1
    for v in parts.removed:
        p[v] -= 1
    return cyc, poly_sub(poly_mul(cyc, poly_sub([1], p)), q)


def series(num, den, length, mod=None):
    """First `length` coefficients of num/den, den[0] = 1."""
    out = []
    for n in range(length):
        c = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            c -= den[i] * out[n - i]
        out.append(c if mod is None else c % mod)
    return out


# -- arithmetic over GF(p) ---------------------------------------------------


def _mulmod(a, b, p):
    """a * b mod p through one big-integer product (Kronecker packing)."""
    if not a or not b:
        return []
    size = (2 * p.bit_length() + min(len(a), len(b)).bit_length() + 7) // 8
    pa = int.from_bytes(b"".join(x.to_bytes(size, "little") for x in a), "little")
    pb = int.from_bytes(b"".join(x.to_bytes(size, "little") for x in b), "little")
    length = len(a) + len(b) - 1
    raw = (pa * pb).to_bytes(length * size, "little")
    return [
        int.from_bytes(raw[i * size : (i + 1) * size], "little") % p
        for i in range(length)
    ]


def coefficient_mod(num, den, n, p):
    """[x^n] num/den mod p by Bostan-Mori: N/D = N(x)D(-x) / D(x)D(-x)."""
    num = [a % p for a in num]
    den = [a % p for a in den]
    while n:
        flipped = [(p - a) % p if i & 1 else a for i, a in enumerate(den)]
        num = _mulmod(num, flipped, p)[n & 1 :: 2]
        den = _mulmod(den, flipped, p)[::2]
        n >>= 1
    return num[0] % p if num else 0  # den[0] stays 1


def _gcd_mod(a, b, p):
    a = trim(x % p for x in a)
    b = trim(x % p for x in b)
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            f = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] = (a[shift + i] - f * y) % p
            a = trim(a)
        a, b = b, a
    return a


def reduced_degree(num, den, p=PRIME):
    """Degree of den once the common factor with num is cancelled."""
    return (len(trim(den)) - 1) - (len(_gcd_mod(num, den, p)) - 1)


# -- input shaping -----------------------------------------------------------


def growth_rate(parts):
    """1/x0 where x0 in (0, 1] solves S(x) = 1, S the part series."""
    k = parts.modulus

    def s(x):
        total = sum(x ** (r if r else k) for r in parts.residues) / (1 - x**k)
        total += sum(x**v for v in parts.added)
        return total - sum(x**v for v in parts.removed)

    lo, hi = 0.0, 1.0 - 1e-12
    for _ in range(80):
        mid = (lo + hi) / 2
        if s(mid) < 1:
            lo = mid
        else:
            hi = mid
    return 1 / hi


# -- exact closed forms ------------------------------------------------------


def fibonacci(n):
    """F(n) with F(0) = 0, F(1) = 1, by fast doubling."""

    def pair(m):
        if m == 0:
            return 0, 1
        a, b = pair(m >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        return (d, c + d) if m & 1 else (c, d)

    return pair(n)[0]


def _family(parts):
    """("ge", t) for {t, t+1, ...} (t = 1 is every part), ("odd",) for the
    odd parts, None otherwise; the spelling of the setspec plays no part."""
    if parts.added:
        return None
    if parts.modulus == 1 and parts.residues == {0}:
        t = len(parts.removed) + 1
        return ("ge", t) if parts.removed == set(range(1, t)) else None
    if parts.modulus == 2 and parts.residues == {1} and not parts.removed:
        return ("odd",)
    return None


def closed_form_count(parts, n):
    """Exact c(n) for every part (2^(n-1)), the odd parts (F(n)) and
    parts >= 2 (F(n-1)), else None."""
    family = _family(parts)
    if n == 0 and family:
        return 1
    if family == ("ge", 1):
        return 1 << (n - 1)
    if family == ("odd",):
        return fibonacci(n)
    if family == ("ge", 2):
        return fibonacci(n - 1)
    return None


def closed_form_row(parts, n):
    """Compositions of n by number of parts m = 0..n, or None.

    parts >= t: C(n - m(t-1) - 1, m - 1) (t = 1 is every part); odd
    parts: C((n+m)/2 - 1, m - 1) when n and m have the same parity.
    """
    family = _family(parts)
    if family is None:
        return None
    row = [1 if n == 0 else 0]
    for m in range(1, n + 1):
        if family == ("odd",):
            row.append(math.comb((n + m) // 2 - 1, m - 1) if (n - m) % 2 == 0 else 0)
        else:
            free = n - m * (family[1] - 1)
            row.append(math.comb(free - 1, m - 1) if free >= m else 0)
    return row


def parse_poly(text):
    """Read compenum's ascending display form, e.g. ``1 - x^2 - 2*x^3``."""
    coeffs = {}
    for token in text.replace(" - ", " + -").split(" + "):
        token = token.strip()
        sign = -1 if token.startswith("-") else 1
        token = token.lstrip("-")
        if "x" not in token:
            coeff, exp = Fraction(token), 0
        else:
            head, _, power = token.partition("x")
            coeff = Fraction(head.rstrip("*")) if head else Fraction(1)
            exp = int(power[1:]) if power.startswith("^") else 1
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)] if coeffs else []
