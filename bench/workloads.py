"""The four workloads: seeded operation lists, reference data, checkers.

Every workload runs one kind of operation whose cost spreads evenly
over a range.  A workload's round is a fixed list of cost slots: a
slot fixes what sets an operation's cost (recurrence order, size of n,
modulus, denominator, --digits, table size).  The slots are the same
for every seed.  The seed fills each slot: it picks the part set among
those of the slot's order or denominator, the low digits of n, and the
order of the operations.  Two seeds thus give different inputs with the
same cost profile, which keeps the medians steady from run to run.

A checker returns None for a correct output and a message otherwise.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from decimal import Decimal

import reference as ref
from reference import PRIME


@dataclass(frozen=True)
class Op:
    """One call of compenum's CLI.

    `argv` is what `compenum.cli.main` receives.  In an operation that
    reads its recurrence from a file, the file name in `argv` is relative
    to the run's work directory, and `parts` names the set whose
    recurrence the file holds.
    """

    argv: tuple
    parts: ref.Parts
    n: int = 0
    modulus: int = 0

    @property
    def kind(self):
        return self.argv[0]

    @property
    def recurrence_file(self):
        if "--recurrence-file" in self.argv:
            return self.argv[self.argv.index("--recurrence-file") + 1]
        return None


def _slot_points(name, count):
    """Midpoints of `count` equal strata of [0, 1) in a fixed order that
    does not depend on the seed."""
    points = [(i + 0.5) / count for i in range(count)]
    random.Random(f"{name} slots").shuffle(points)
    return points


def _pick(rng, shapes, accept, attempts=5000):
    for _ in range(attempts):
        parts = rng.choice(shapes)()
        if accept(parts):
            return parts
    raise RuntimeError("no part set of the requested shape found")


def _random_subset(rng, k, low, high):
    size = rng.randint(max(1, low), max(1, min(k, high)))
    return rng.sample(range(k), size)


# -- exact-count ------------------------------------------------------------

EXACT_ORDERS = (1, 2) + tuple(range(4, 32))
# every family grows at most like 2^n, so with n scaled as below, c(n)
# stays under 4200 digits, 100 below CPython's 4300-digit conversion limit
EXACT_MAX_N = 13_900
SERIES_FORMATS = ("plain", "csv", "json")


def _exact_family(rng, order):
    if order == 1:
        return ref.everything()
    if order == 2:
        return rng.choice([ref.residue_classes(2, [1]), ref.at_least(2)])
    # dense sets, growing at 1.95 or more (1.9 at order 4, where no set
    # grows faster than 1.928)
    least = 1.9 if order == 4 else 1.95
    shapes = [
        lambda: ref.negate(ref.residue_classes(order, _random_subset(rng, order, 1, order // 4))),
        lambda: ref.negate(ref.progression(rng.randint(2, order), order)),
        lambda: ref.residue_classes(order, _random_subset(rng, order, 3 * order // 4, order)),
        lambda: ref.finite([1, 2, 3] + rng.sample(range(4, order + 1), rng.randint(1, order - 3))),
    ]
    return _pick(
        rng,
        shapes,
        lambda p: ref.growth_rate(p) >= least
        and ref.reduced_degree(*ref.unreduced_gf(p)) == order,
    )


def exact_count_ops(seed):
    """90 operations: count, exact nth and series on 30 families each, of
    recurrence order 1, 2 and 4..31.  count and nth take n from 0.1 to 1
    times EXACT_MAX_N * sqrt(log 2 / log growth), which keeps c(n) under
    4200 digits; series takes a limit a quarter of that, since beyond it
    formatting every term, not the recurrence, dominates the cost."""
    rng = random.Random(f"exact-count:{seed}")
    ops = []
    for kind in ("count", "nth", "series"):
        points = _slot_points(f"exact-count {kind}", len(EXACT_ORDERS))
        for order, point in zip(EXACT_ORDERS, points):
            parts = _exact_family(rng, order)
            # the cost of c(n) grows like n * digits(c(n)) = n^2 log10(growth):
            # scale n so that every family of a slot costs the same
            scale = math.sqrt(math.log(2) / math.log(ref.growth_rate(parts)))
            n = int((0.1 + 0.9 * point) * EXACT_MAX_N * scale) + rng.randrange(-20, 20)
            if kind == "series":
                n //= 4
                fmt = SERIES_FORMATS[order % 3]
                ops.append(Op((kind, parts.spec, "--limit", str(n), "--format", fmt), parts, n))
            else:
                ops.append(Op((kind, parts.spec, str(n)), parts, n))
    rng.shuffle(ops)
    return ops


def _parse_series(text, fmt):
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        return [int(v) for v in text.strip().split(",")]
    values = []
    for i, line in enumerate(text.splitlines()):
        index, value = line.split()
        if int(index) != i:
            raise ValueError(f"line {i} is numbered {index}")
        values.append(int(value))
    return values


def check_exact(op, out, refs):
    counts = refs[op.parts]
    if op.kind == "series":
        values = _parse_series(out, op.argv[op.argv.index("--format") + 1])
        if len(values) != op.n + 1:
            return f"{len(values)} terms for limit {op.n}"
        indices = range(op.n + 1)
    else:
        values = [int(out.strip())]
        indices = [op.n]
    for i, value in zip(indices, values):
        if value % PRIME != counts[i]:
            return f"c({i}) differs from the direct count mod 2^61-1"
        exact = ref.closed_form_count(op.parts, i)
        if exact is not None and value != exact:
            return f"c({i}) differs from the closed form of {op.parts.spec}"
    return None


def exact_count_refs(ops):
    top = {}
    for op in ops:
        top[op.parts] = max(top.get(op.parts, 0), op.n)
    return {parts: ref.direct_counts(parts, n, mod=PRIME) for parts, n in top.items()}


# -- modular-nth ------------------------------------------------------------

MODULAR_OPS = 96
MODULAR_MAX_ORDER = 60
MODULI = (97, 65537, 1_000_000_007, (1 << 61) - 1, (1 << 89) - 1)
FILE_EVERY = 4


def _modular_family(rng, order):
    """A set whose generating function has denominator degree `order`
    before and after reduction, so the gcd work is alike across a slot,
    and whose denominator is not a polynomial in x^g for any g > 1: the
    powers of x modulo such a denominator are sparse, which made one
    slot's cost differ tenfold between seeds."""
    k = order
    shapes = [
        lambda: ref.residue_classes(k, _random_subset(rng, k, 1, k)),
        lambda: ref.negate(ref.residue_classes(k, _random_subset(rng, k, 1, k - 1))),
        lambda: ref.progression(rng.randint(1, k), k),
        lambda: ref.negate(ref.progression(rng.randint(1, k), k)),
        lambda: ref.at_least(k),
    ]

    def accept(parts):
        num, den = ref.unreduced_gf(parts)
        step = math.gcd(*(i for i, c in enumerate(den) if c))
        return step == 1 and len(den) - 1 == order == ref.reduced_degree(num, den)

    return _pick(rng, shapes, accept)


def modular_nth_ops(seed):
    """96 operations `nth <set> <n> --mod p`: orders 1..60 evenly, n
    log-uniform in [1e6, 1e18], five prime sizes in equal shares.  The
    operations of every fourth slot read the recurrence from a JSON file
    written by `compenum recurrence`."""
    rng = random.Random(f"modular-nth:{seed}")
    points = _slot_points("modular-nth", MODULAR_OPS)
    ops = []
    for i, point in enumerate(points):
        order = 1 + (MODULAR_MAX_ORDER - 1) * i // (MODULAR_OPS - 1)
        modulus = MODULI[i % len(MODULI)]
        parts = _modular_family(rng, order)
        low = 10 ** (6 + 12 * point)
        n = int(low * (1 + 0.01 * rng.random()))
        if i % FILE_EVERY == FILE_EVERY - 1:
            argv = ("nth", str(n), "--mod", str(modulus), "--recurrence-file", f"rec-{i:02d}.json")
        else:
            argv = ("nth", parts.spec, str(n), "--mod", str(modulus))
        ops.append(Op(argv, parts, n, modulus))
    rng.shuffle(ops)
    return ops


def modular_nth_refs(ops):
    """The benchmark's own answer to each operation.

    Before it is used, the unreduced N/D of each set is checked against
    the direct count on enough terms to pin the rational function down.
    """
    answers = {}
    for op in ops:
        num, den = ref.unreduced_gf(op.parts)
        length = len(num) + len(den) + 8
        if ref.series(num, den, length, PRIME) != ref.direct_counts(op.parts, length - 1, PRIME):
            raise AssertionError(f"reference N/D of {op.parts.spec} disagrees with the direct count")
        answers[op.argv] = ref.coefficient_mod(num, den, op.n, op.modulus)
    return answers


def check_modular(op, out, refs):
    if int(out.strip()) != refs[op.argv]:
        return f"f({op.n}) mod {op.modulus} differs from the reference evaluator"
    return None


# -- closed-form ------------------------------------------------------------

CLOSED_DEGREES = tuple(range(2, 19))
CLOSED_DIGITS = (None, 20, 32, 80)
EVAL_MAX_N = 400
EVAL_MAX_COUNT = 10**11
REPEATED_FACTOR = ref.residue_classes(9, [2, 6, 7, 8])


def same_denominator_sets(degree, kind):
    """Setspecs whose reduced generating function has the denominator
    1 - x - x^d (kind 0), 1 - x - x^2 - ... - x^d (kind 1) or
    1 - x^2 - x^d (kind 2), d = degree.  Root finding, the bulk of a
    closed form's cost, sees only the denominator."""
    d = degree
    if kind == 2 and d > 2:
        return [ref.finite([2, d]), ref.progression(2, d)]
    if kind == 1:
        return [
            ref.negate(ref.residue_classes(d, [0])),
            ref.negate(ref.progression(d, d)),
            ref.finite(range(1, d + 1)),
            ref.negate(ref.at_least(d + 1)),
        ]
    return [ref.at_least(d), ref.finite([1, d]), ref.progression(1, d),
            ref.negate(ref.finite(range(1, d)))]


def _digits_argv(digits):
    return () if digits is None else ("--digits", str(digits))


def closed_form_ops(seed):
    """69 operations: `closed-form` and `eval-closed` twice per degree
    2..18, with the denominator kind and --digits fixed by the slot, plus
    the repeated-factor set mod:9:2,6,7,8, which fails every time."""
    rng = random.Random(f"closed-form:{seed}")
    ops = []
    for d in CLOSED_DEGREES:
        for slot, kind in enumerate(("closed-form", "closed-form", "eval-closed", "eval-closed")):
            parts = rng.choice(same_denominator_sets(d, (d + slot) % 3))
            digits = _digits_argv(CLOSED_DIGITS[(d + slot) % len(CLOSED_DIGITS)])
            if kind == "closed-form":
                ops.append(Op((kind, parts.spec) + digits, parts))
                continue
            counts = ref.direct_counts(parts, EVAL_MAX_N)
            n_lim = next((n - 1 for n, c in enumerate(counts) if c >= EVAL_MAX_COUNT), EVAL_MAX_N)
            n = rng.randint(0, n_lim)
            ops.append(Op((kind, parts.spec, str(n)) + digits, parts, n))
    ops.append(Op(("closed-form", REPEATED_FACTOR.spec), REPEATED_FACTOR))
    rng.shuffle(ops)
    return ops


def closed_form_refs(ops):
    return {op.parts: ref.direct_counts(op.parts, EVAL_MAX_N) for op in ops}


_POLE = re.compile(
    r"pole (\d+): (\(.*?\)|\S+)  residue (\(.*?\)|\S+)  modulus (\S+)  \[(inside|on|outside)\]$"
)
_TOL = 1e-9


def _complex(text):
    return complex(text.strip("()").replace(" ", ""))


def _close(a, b, tol=_TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _polyroots(den):
    import mpmath

    with mpmath.workdps(30):
        roots = mpmath.polyroots([int(c) for c in reversed(den)], maxsteps=500, extraprec=300)
    return [complex(r) for r in roots]


def check_closed_form(op, out, refs):
    lines = out.splitlines()
    head = re.fullmatch(r"generating function: \((.*)\) / \((.*)\)", lines[0])
    if not head:
        return "no generating function line"
    num, den = (ref.parse_poly(text) for text in head.groups())
    if den[0] != 1:
        return "denominator constant term is not 1"
    counts = refs[op.parts]
    own_num, own_den = ref.unreduced_gf(op.parts)
    length = len(num) + len(den) + len(own_num) + len(own_den)
    if ref.series([int(c) for c in num], [int(c) for c in den], length) != counts[:length]:
        return "printed N/D does not expand to the direct counts"
    poly_text = lines[1].removeprefix("polynomial part: ")
    quotient = [] if poly_text == "0" else ref.parse_poly(poly_text)
    rows = [_POLE.match(line) for line in lines[2:-3]]
    if len(rows) != len(den) - 1 or not all(rows):
        return f"expected {len(den) - 1} pole lines"
    poles = [_complex(m.group(2)) for m in rows]
    residues = [_complex(m.group(3)) for m in rows]
    for m, z in zip(rows, poles):
        if not _close(float(m.group(4)), abs(z)):
            return f"pole {m.group(1)}: modulus is not |pole|"
        label = "inside" if abs(z) < 1 - _TOL else "outside" if abs(z) > 1 + _TOL else "on"
        if m.group(5) != label:
            return f"pole {m.group(1)}: labelled {m.group(5)}, |pole| = {abs(z)!r}"
    unmatched = _polyroots(den)
    for z in poles:
        best = min(unmatched, key=lambda w: abs(w - z))
        if not _close(best, z, 1e-10):
            return f"pole {z} is not a root of the printed denominator"
        unmatched.remove(best)
    for n in range(3):
        terms = [r * z ** (-n) for r, z in zip(residues, poles)]
        q = float(quotient[n]) if n < len(quotient) else 0.0
        scale = sum(abs(t) for t in terms) + abs(q) + 1
        if abs(sum(terms) + q - counts[n]) > 1e-8 * scale:
            return f"poles and residues do not reproduce c({n})"
    moduli = sorted(abs(z) for z in poles)
    growth, unique, valid = (line.split(": ")[1] for line in lines[-3:])
    if not _close(float(growth), 1 / moduli[0]):
        return "growth rate is not 1/min|pole|"
    is_unique = len(moduli) == 1 or moduli[1] - moduli[0] > 1e-8
    if unique != ("yes" if is_unique else "no"):
        return "unique dominant pole misreported"
    is_valid = is_unique and all(m > 1 + 1e-8 for m in moduli[1:])
    if valid != ("yes" if is_valid else "no"):
        return "nearest-integer rounding validity misreported"
    return None


def check_eval_closed(op, out, refs):
    value = Decimal(out.strip())
    exact = refs[op.parts][op.n]
    if abs(value - exact) > Decimal("0.01"):
        return f"eval-closed {op.n} rounds to {round(value)}, direct count {exact}"
    return None


def check_closed(op, out, refs):
    if op.kind == "eval-closed":
        return check_eval_closed(op, out, refs)
    return check_closed_form(op, out, refs)


# -- length-table -----------------------------------------------------------

TABLE_OPS = 80
TABLE_N = (40, 300)


def _table_spellings(slot_rng, category, k):
    """Setspecs of one set, fixed by the slot.  Category 0: a set with a
    binomial row formula (all, odd parts, ge:t); 1: all but one residue
    class mod k; 2: half the classes mod k; 3: one class mod k.  The cost
    of a table depends on which small parts the set has, so the slot fixes
    the set and the seed picks only how it is written."""
    if category == 0:
        t = slot_rng.randint(2, 5)
        return [
            [ref.everything(), ref.at_least(1), ref.residue_classes(1, [0]), ref.negate(ref.finite([]))],
            [ref.residue_classes(2, [1]), ref.progression(1, 2), ref.negate(ref.residue_classes(2, [0])),
             ref.negate(ref.progression(2, 2))],
            [ref.at_least(t), ref.negate(ref.finite(range(1, t)))],
        ][k % 3]
    if category == 2:
        chosen = slot_rng.sample(range(k), k // 2)
        rest = [c for c in range(k) if c not in chosen]
        return [ref.residue_classes(k, chosen), ref.negate(ref.residue_classes(k, rest))]
    r = slot_rng.randrange(k)
    rest = [c for c in range(k) if c != r]
    one = [ref.residue_classes(k, [r]), ref.progression(r or k, k), ref.negate(ref.residue_classes(k, rest))]
    if category == 1:
        return [ref.negate(p) for p in one[:2]] + [ref.residue_classes(k, rest)]
    return one


def length_table_ops(seed):
    """80 operations `bylength <set> <n>`: twenty per category, n spread
    over [40, 300] within each category, moduli 3..12."""
    rng = random.Random(f"length-table:{seed}")
    slot_rng = random.Random("length-table slots")
    per = TABLE_OPS // 4
    lo, hi = TABLE_N
    ops = []
    for category in range(4):
        points = _slot_points(f"length-table {category}", per)
        for j, point in enumerate(points):
            parts = rng.choice(_table_spellings(slot_rng, category, 3 + j % 10))
            n = lo + int((hi - lo) * point) + rng.randrange(-2, 3)
            ops.append(Op(("bylength", parts.spec, str(n)), parts, n))
    rng.shuffle(ops)
    return ops


def length_table_refs(ops):
    """Exact direct counts, plus counts with each part weighted by a
    seed-free random y mod p: row n of the table evaluated at y must
    equal the weighted count of n (Schwartz-Zippel)."""
    weight = random.Random("length-table weight").randrange(2, PRIME)
    refs = {"weight": weight}
    for op in ops:
        refs[op.parts] = (
            ref.direct_counts(op.parts, TABLE_N[1] + 2),
            ref.direct_counts(op.parts, TABLE_N[1] + 2, mod=PRIME, weight=weight),
        )
    return refs


def check_length_table(op, out, refs):
    row = []
    for m, line in enumerate(out.splitlines()):
        index, value = line.split()
        if int(index) != m:
            return f"line {m} is numbered {index}"
        row.append(int(value))
    if len(row) != op.n + 1:
        return f"{len(row)} lengths for n = {op.n}"
    counts, weighted = refs[op.parts]
    if sum(row) != counts[op.n]:
        return f"row {op.n} sums to {sum(row)}, direct count {counts[op.n]}"
    if sum(c * pow(refs["weight"], m, PRIME) for m, c in enumerate(row)) % PRIME != weighted[op.n]:
        return f"row {op.n} disagrees with the part-weighted direct count"
    expected = ref.closed_form_row(op.parts, op.n)
    if expected is not None and row != expected:
        return f"row {op.n} differs from the binomial closed form of {op.parts.spec}"
    return None


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_ops: object
    make_refs: object
    check: object
    warmup: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-count",
            exact_count_ops,
            exact_count_refs,
            check_exact,
            (
                ("count", "not:mod:3:0", "2000"),
                ("nth", "mod:2:1", "2000"),
                ("series", "all", "--limit", "300", "--format", "csv"),
            ),
        ),
        Workload(
            "modular-nth",
            modular_nth_ops,
            modular_nth_refs,
            check_modular,
            (
                ("nth", "not:mod:7:0", "1000000000", "--mod", "1000000007"),
                ("nth", "ge:20", "1000000000000", "--mod", str((1 << 61) - 1)),
            ),
        ),
        Workload(
            "closed-form",
            closed_form_ops,
            closed_form_refs,
            check_closed,
            (
                ("closed-form", "not:mod:4:0"),
                ("eval-closed", "ap:2:5", "30", "--digits", "20"),
            ),
        ),
        Workload(
            "length-table",
            length_table_ops,
            length_table_refs,
            check_length_table,
            (("bylength", "all", "60"), ("bylength", "not:mod:3:0", "80")),
        ),
    )
}
