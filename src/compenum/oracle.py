"""Ground truth and verification.

Independent reference implementations live here: exhaustive
enumeration (exponential, capped), the direct tabulation

    c(0) = 1,  c(n) = sum over p in A with p <= n of c(n - p),

its refinement by number of parts (dp_length_table) and the slices
S(x)^m by convolution; none of them touches the polynomial pipeline.
On top of them sit the verifiers: each builds a report of named checks
whose rows carry (n, lhs, rhs) so a failure is inspectable, plus
free-text findings for anything worth flagging that is not itself a
pass/fail row.  Every theorem and oracle report runs the same route
checks on its part set (_route_checks): the recurrence round trip and
the unreduced series stream against dp to the report's limit, and
enumeration against dp to min(limit, ENUM_LIMIT).  family_reports holds
each family's parameter grid, the one list that run_verification_suite
and the CLI's verify both read.

Some checks are expected to fail by design and are documented in the
reports rather than patched: the closed-form initial values for the
avoid-residue family (avoid_residue_seed_formula) collapse to zero at
m = 1 and overcount from j = m + 2 on, so their comparison rows fail
exactly there while the recurrence with derived initials stays exact;
and the unshifted form of the odd-parts/min-part-2 coincidence fails
(it only holds with the totals offset by one) and is reported as a
finding.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .genfun import composition_gf, composition_series
from .partset import PartSet, parse_setspec
from .recurrence import (
    avoid_residue_recurrence,
    avoid_residue_seed_formula,
    no_multiples_recurrence,
    recurrence_from_gf,
)

DEFAULT_ENUM_LIMIT = 25
ENUM_LIMIT = 14


def compositions(A, n, limit=DEFAULT_ENUM_LIMIT):
    """Every composition of n with all parts in A, as a tuple of part
    tuples in lexicographic order.

    The count grows like 2^(n-1) for dense sets, so n is capped; raise
    the cap explicitly if you really want the blowup.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > limit:
        raise ValueError(
            f"n = {n} exceeds the enumeration limit {limit}; pass limit= to override"
        )
    members = A.members_upto(n)
    out = []
    prefix = []

    def extend(remaining):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in members:
            if p > remaining:
                break
            prefix.append(p)
            extend(remaining - p)
            prefix.pop()

    extend(n)
    return tuple(out)


def dp_count_series(A, order):
    """c(0)..c(order) by direct tabulation, no polynomials involved."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    members = A.members_upto(order)
    c = [0] * (order + 1)
    c[0] = 1
    for i in range(1, order + 1):
        acc = 0
        for p in members:
            if p > i:
                break
            acc += c[i - p]
        c[i] = acc
    return tuple(c)


def dp_count(A, n):
    return dp_count_series(A, n)[n]


def dp_length_table(A, limit):
    """Rows 0..limit (each of limit + 1 entries) of c(n, m), compositions
    of n with m parts: c(0, 0) = 1, c(n, m) = sum over p in A, p <= n,
    of c(n - p, m - 1), since prepending p to one gives one of n."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    members = A.members_upto(limit)
    rows = [[1] + [0] * limit]
    for n in range(1, limit + 1):
        row = [0] * (limit + 1)
        for p in members:
            if p > n:
                break
            prev = rows[n - p]
            # parts are >= 1, so a composition of n-p has at most n-p parts
            for m in range(1, n - p + 2):
                row[m] += prev[m - 1]
        rows.append(row)
    return tuple(tuple(r) for r in rows)


def length_slice_series(A, m, order):
    """Coefficients of S(x)^m up to x^order: compositions with exactly m parts.

    m = 0 yields the series 1 (the empty composition).  Plain truncated
    convolution, independent of the length DP.
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


def row_check_against_slices(A, n):
    """True iff row n of dp_length_table has [x^n] S(x)^m at every m."""
    row = dp_length_table(A, n)[n]
    return all(row[m] == length_slice_series(A, m, n)[n] for m in range(n + 1))


# -- report plumbing -------------------------------------------------------


class CheckRow(namedtuple("CheckRow", "n lhs rhs")):
    __slots__ = ()

    @property
    def ok(self):
        return self.lhs == self.rhs

    def to_dict(self):
        return {"n": self.n, "lhs": self.lhs, "rhs": self.rhs, "pass": self.ok}


class Check(namedtuple("Check", "name rows")):
    __slots__ = ()

    @property
    def passed(self):
        return all(row.ok for row in self.rows)

    @property
    def first_failure(self):
        for row in self.rows:
            if not row.ok:
                return row
        return None

    def to_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "rows": [row.to_dict() for row in self.rows],
        }


class VerificationReport(namedtuple("VerificationReport", "name params checks findings", defaults=((),))):
    __slots__ = ()

    @property
    def passed(self):
        return all(check.passed for check in self.checks)

    def to_dict(self):
        return {
            "name": self.name,
            "params": dict(self.params),
            "passed": self.passed,
            "checks": [check.to_dict() for check in self.checks],
            "findings": list(self.findings),
        }


# -- verifiers --------------------------------------------------------------


def verify_cayley_shift(limit=25):
    """Odd-part counts vs counts with every part >= 2.

    The coincidence needs a shift: odd-part compositions of n match
    min-part-2 compositions of n + 1, and both walk the Fibonacci
    sequence.  The unshifted comparison fails and is reported as a
    finding with its first counterexample.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    odd = PartSet(2, frozenset({1}))
    ge2 = PartSet.from_threshold(2)
    odd_counts = dp_count_series(odd, limit + 1)
    ge2_counts = dp_count_series(ge2, limit + 1)
    fib = no_multiples_recurrence(2).to_gf().series(limit + 1)
    checks = (
        Check(
            "odd-part count of n vs min-part-2 count of n+1",
            tuple(
                CheckRow(n, odd_counts[n], ge2_counts[n + 1])
                for n in range(1, limit + 1)
            ),
        ),
        Check(
            "odd-part counts vs Fibonacci recurrence",
            tuple(CheckRow(n, odd_counts[n], fib[n]) for n in range(1, limit + 1)),
        ),
        Check(
            "min-part-2 count of n+1 vs Fibonacci recurrence",
            tuple(
                CheckRow(n, ge2_counts[n + 1], fib[n]) for n in range(1, limit + 1)
            ),
        ),
    )
    findings = []
    first = next(
        (n for n in range(1, limit + 1) if odd_counts[n] != ge2_counts[n]), None
    )
    nondegenerate = next(
        (
            n
            for n in range(1, limit + 1)
            if odd_counts[n] != ge2_counts[n] and min(odd_counts[n], ge2_counts[n]) > 0
        ),
        None,
    )
    if first is not None:
        msg = (
            f"unshifted comparison fails first at n = {first}: odd-part count "
            f"{odd_counts[first]} vs min-part-2 count {ge2_counts[first]}"
        )
        if nondegenerate is not None and nondegenerate != first:
            msg += (
                f"; first mismatch with both counts positive is n = "
                f"{nondegenerate}: {odd_counts[nondegenerate]} vs "
                f"{ge2_counts[nondegenerate]}"
            )
        msg += "; the identity holds with the totals offset by one"
        findings.append(msg)
    return VerificationReport("cayley", {"limit": limit}, checks, tuple(findings))


def _two_letter_counts(a, b, limit):
    # words over two marked letters of sizes a and b; when a == b this
    # deliberately double-counts relative to the one-element part set
    w = [0] * (limit + 1)
    w[0] = 1
    for n in range(1, limit + 1):
        acc = 0
        if n >= a:
            acc += w[n - a]
        if n >= b:
            acc += w[n - b]
        w[n] = acc
    return tuple(w)


def verify_sills_zeilberger(a=1, b=2, limit=25):
    """Compositions from the two parts {a, b} vs the progression forms.

    Counts of n from parts {a, b} equal counts of n + a from parts
    {a + bj : j >= 0}, and symmetrically counts of n + b from parts
    {b + aj}.  The two-part side is computed as words over two marked
    letters, which matches the plain set count whenever a != b (checked
    explicitly) and stays correct when a == b, where the set {a, a}
    would collapse and undercount.
    """
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive")
    if limit < 1:
        raise ValueError("limit must be positive")
    words = _two_letter_counts(a, b, limit)
    findings = []
    if a == b:
        findings.append(
            f"a = b = {a}: the two parts coincide, so the pair side counts words "
            f"over two marked copies (w(n) = 2 w(n - {a})); the plain set "
            f"{{{a}}} would undercount"
        )
    prog_ab = dp_count_series(PartSet.arithmetic_progression(a, b), limit + a)
    prog_ba = dp_count_series(PartSet.arithmetic_progression(b, a), limit + b)
    checks = [
        Check(
            f"pair {{{a},{b}}} count of n vs progression {{{a}+{b}j}} count of n+{a}",
            tuple(CheckRow(n, words[n], prog_ab[n + a]) for n in range(1, limit + 1)),
        ),
        Check(
            f"pair {{{a},{b}}} count of n vs progression {{{b}+{a}j}} count of n+{b}",
            tuple(CheckRow(n, words[n], prog_ba[n + b]) for n in range(1, limit + 1)),
        ),
    ]
    if a != b:
        pair_counts = dp_count_series(PartSet.finite((a, b)), limit)
        checks.append(
            Check(
                "two-letter word counts vs part-set counts",
                tuple(
                    CheckRow(n, words[n], pair_counts[n]) for n in range(1, limit + 1)
                ),
            )
        )
    return VerificationReport(
        "zeilberger", {"a": a, "b": b, "limit": limit}, tuple(checks), tuple(findings)
    )


def _route_checks(A, dp, limit):
    """The checks every theorem and oracle report runs on its part set
    A against the dp counts dp[0..limit]: the recurrence round trip
    through the reduced generating function and the unreduced series
    stream, both to limit, and exhaustive enumeration to
    min(limit, ENUM_LIMIT), since it is exponential in n."""
    recurrence = recurrence_from_gf(composition_gf(A)).to_gf().series(limit)
    series = composition_series(A, limit)
    top = min(limit, ENUM_LIMIT)
    return (
        Check(
            "generating function recurrence vs dp counts",
            tuple(CheckRow(n, recurrence[n], dp[n]) for n in range(limit + 1)),
        ),
        Check(
            "generating function series vs dp counts",
            tuple(CheckRow(n, series[n], dp[n]) for n in range(limit + 1)),
        ),
        Check(
            "exhaustive enumeration vs dp counts",
            tuple(
                CheckRow(n, len(compositions(A, n, limit=top)), dp[n])
                for n in range(top + 1)
            ),
        ),
    )


def _theorem_k(k, m):
    """The order k of the recurrences that verify_theorem builds for thm2
    and thm3: k as given, else 3, or m + 1 for a larger m given alone,
    the least k that admits it."""
    return k if k is not None else max(3, 3 if m is None else m + 1)


def verify_theorem(family, limit=25, k=None, m=None):
    """Multi-way check of one stated counting result.

    family is one of "thm1" (odd parts are Fibonacci), "thm2" (parts
    not divisible by k), "thm3" (parts avoiding one residue class mod
    k), "all_2n1" (unrestricted counts are 2^(n-1)).  Each report
    compares the family's sequence against the dp oracle, then runs the
    shared route checks (_route_checks).  For thm2 and thm3 a further
    check replays the stated closed-form initial values against the dp
    oracle; for thm3 that check fails wherever the closed form is wrong
    (everywhere past n = 1 when m = 1, and from n = m + 2 on otherwise,
    the coincidence at m = 2, n = 4 excepted), and the mismatches are
    spelled out in a finding rather than corrected.  m defaults to 2 and
    k to 3, or to m + 1 where m alone is given and that is larger.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    stated_initials = None
    if family == "thm1":
        A = parse_setspec("mod:2:1")
        seq = no_multiples_recurrence(2).to_gf().series(limit)
        params = {"limit": limit}
    elif family == "thm2":
        k = _theorem_k(k, None)
        if k < 2:
            raise ValueError("thm2 needs k >= 2")
        A = parse_setspec(f"not:mod:{k}:0")
        rec = no_multiples_recurrence(k)
        seq = rec.to_gf().series(limit)
        stated_initials = rec.initial_terms
        params = {"k": k, "limit": limit}
    elif family == "thm3":
        k, m = _theorem_k(k, m), 2 if m is None else m
        if not (1 <= m < k):
            raise ValueError("thm3 needs 1 <= m < k")
        A = parse_setspec(f"not:ap:{m}:{k}")
        seq = avoid_residue_recurrence(k, m).to_gf().series(limit)
        stated_initials = avoid_residue_seed_formula(k, m)
        params = {"k": k, "m": m, "limit": limit}
    elif family == "all_2n1":
        A = PartSet.everything()
        seq = (1,) + tuple(2 ** (n - 1) for n in range(1, limit + 1))
        params = {"limit": limit}
    else:
        raise ValueError(f"unknown verification family {family!r}")

    dp = dp_count_series(A, limit)
    checks = [
        Check(
            "theorem sequence vs dp counts",
            tuple(CheckRow(n, seq[n], dp[n]) for n in range(1, limit + 1)),
        )
    ]
    findings = []
    if stated_initials is not None:
        seed_check = Check(
            "stated initial values vs dp counts",
            tuple(
                CheckRow(n, stated_initials[n], dp[n])
                for n in range(1, min(k, limit) + 1)
            ),
        )
        checks.append(seed_check)
        if not seed_check.passed:
            listed = ", ".join(
                f"n={row.n} (stated {row.lhs}, true {row.rhs})"
                for row in seed_check.rows
                if not row.ok
            )
            if family == "thm3" and m == 1:
                reason = "the stated initial-value formula collapses to zero at m = 1"
            else:
                reason = "the stated initial-value formula overcounts"
            findings.append(
                f"{reason}; mismatches: {listed}; the recurrence with initial "
                f"values derived by coefficient comparison matches the oracle at "
                f"every n, as does the generating function route"
            )
    checks.extend(_route_checks(A, dp, limit))
    return VerificationReport(family, params, tuple(checks), tuple(findings))


def verify_triangle(A, limit=16):
    """Enumeration count = dp count = generating function coefficient:
    the shared route checks (_route_checks) on A alone."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    checks = _route_checks(A, dp_count_series(A, limit), limit)
    return VerificationReport("oracle", {"set": str(A), "limit": limit}, checks)


def random_partset(rng, max_modulus=6):
    """Deterministic-from-rng random eventually periodic part set."""
    k = rng.randint(1, max_modulus)
    residues = frozenset(r for r in range(k) if rng.random() < 0.5)
    added = set()
    removed = set()
    for v in rng.sample(range(1, 13), rng.randint(0, 3)):
        if v % k in residues:
            removed.add(v)
        else:
            added.add(v)
    return PartSet(k, residues, frozenset(added), frozenset(removed))


def family_reports(family, limit=25, seed=0, **given):
    """The reports of one verification family over its grid: the one
    list that both run_verification_suite and the CLI's verify read.

    thm2 runs k = 2..6, thm3 every 1 <= m < k <= 6, zeilberger every
    1 <= a, b <= 4, oracle ten sets drawn by random_partset from
    random.Random(seed), and "all" every family in turn, all_2n1
    included.  The parameters a family takes are the keys of its grid;
    given any of them (a value not None), it runs the grid rows that
    hold those values, or, where no row does, once with the verifier's
    defaults filling in the rest.  Any other parameter raises
    ValueError naming it.
    """
    grid = {
        "thm2": [{"k": k} for k in range(2, 7)],
        "thm3": [{"k": k, "m": m} for k in range(2, 7) for m in range(1, k)],
        "zeilberger": [{"a": a, "b": b} for a in range(1, 5) for b in range(1, 5)],
    }.get(family, [{}])
    given = {name: value for name, value in given.items() if value is not None}
    for name in given:
        if name not in grid[0]:
            takes = ", ".join(f"--{key}" for key in grid[0]) or "no parameters"
            raise ValueError(f"verify {family} takes no --{name} (it takes {takes})")
    if family == "all":
        families = ("thm1", "thm2", "thm3", "all_2n1", "cayley", "zeilberger", "oracle")
        return [report for name in families for report in family_reports(name, limit, seed)]
    if family == "cayley":
        return [verify_cayley_shift(limit)]
    if family == "oracle":
        rng = random.Random(seed)
        return [verify_triangle(random_partset(rng), limit) for _ in range(10)]
    runs = [row for row in grid if given.items() <= row.items()] or [given]
    if family == "zeilberger":
        return [verify_sills_zeilberger(limit=limit, **params) for params in runs]
    return [verify_theorem(family, limit, **params) for params in runs]


def run_verification_suite(seed=0, limit=25):
    """Every verifier over its standard parameter grid, family_reports("all").

    The thm3 reports whose stated initial values are wrong (all of
    m = 1, plus the pairs where the closed form overcounts inside the
    seed range) fail their stated-initials check with a documented
    finding, which expected_discrepancy recognizes so the suite as a
    whole can still be judged clean.
    """
    return tuple(family_reports("all", limit, seed))


def expected_discrepancy(report):
    """True only for the documented failure shape: a thm3 report with a
    finding whose only failing check is the stated-initials replay."""
    if report.name != "thm3" or report.passed or not report.findings:
        return False
    failing = [check.name for check in report.checks if not check.passed]
    return failing == ["stated initial values vs dp counts"]


def suite_passed(reports):
    return all(r.passed or expected_discrepancy(r) for r in reports)
