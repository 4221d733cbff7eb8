"""Command line front end.

One subcommand per library artifact: exact counts, series prefixes,
extracted recurrences (JSON, round-trippable into `nth`), numeric
closed forms, the three-column mod-3 table, joint length counts, and
the verification suites.

Exit status: 0 on success, 1 when a verification report fails, 2 on
usage or parse errors (argparse's under the subcommand's usage line,
as `table` without --mod3; a handler's on one `error:` line, as `nth
--mod` below 2), on setspec integers and verify's --k, --m, --a and
--b above partset.MAX_VALUE, on a verify flag that the family does not
take (oracle.family_reports lists each family's), on exact results
and packed bylength rows (slots sized by genfun.composition_bits) over
MAX_EXACT_BITS, on series, mod-3 tables, recurrence seeds and the seeds
of `verify thm2` and `verify thm3 --k` whose terms are bounded above
MAX_SERIES_BITS in all, on --digits outside 16..closedform.MAX_DIGITS,
on closed forms whose estimated cost exceeds closedform.MAX_SECONDS or
whose poles or residues do not certify at the requested precision, and
on an `eval-closed` value past 10^decimal.MAX_EMAX, which dyadic_str
cannot print (diagnostics on standard error).  Output is deterministic
for identical inputs.
Each command imports only the modules it runs: `import compenum.cli`
loads the parser, genfun, partset and polyring, `bylength` adds
bivariate, `recurrence` and `nth --recurrence-file` recurrence and json,
`closed-form` and `eval-closed` closedform, and `verify` oracle and json;
decimal loads lazily, imported where `series`, `table`, `recurrence` or
an exact term above STR_BITS prints through it.
`closed-form` and `eval-closed` print the exact dyadic numbers that
closedform returns through closedform.dyadic_str, to DISPLAY_DIGITS
significant digits; `eval-closed` prints the count itself where its
error bound certifies one integer.

`series`, `table --mod3` and the seed `recurrence` prints read one
stream, genfun.composition_terms, of exact decimal.Decimal values in a
local context that traps any rounding, and write the terms in chunks of
joined strings: str(Decimal) is linear in the digits, where str(int) is
quadratic before CPython 3.12.  `count`, which is `nth` without
--mod, and exact `nth` print results above STR_BITS bits by the same
divide and conquer through Decimal as CPython 3.12's _pylong.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from itertools import islice

from . import genfun
from .partset import MAX_VALUE, parse_setspec
from .polyring import coefficient_mod

DISPLAY_DIGITS = 12
# Exact results, and the packed coefficient a bylength row is read from,
# are refused above this many bits, before any work: near it the exact
# term takes most of a second (`count not:mod:3:0 2000000`, 1.76 * 10^6
# bits, 0.6-0.7 s as a whole process on a 2-core host with CPython 3.11:
# 0.36 s the term, 0.21 s the print through _int_str), the bylength
# expansion grows faster still, and memory grows with both.
MAX_EXACT_BITS = 2_000_000
# A series is refused when (limit + 1) * composition_bits(A, limit), a
# bound on the bits of all its terms, is above this, before any
# expansion.  The output grows as limit^2: on a 2-core host with CPython
# 3.11, `series not:mod:3:0` prints 53 MB in 0.34 s and 20 MB of memory
# at --limit 20000 (4.0 * 10^8 bits, admitted), and would print 4 times
# that at --limit 40000 (1.6 * 10^9 bits, refused).
MAX_SERIES_BITS = 500_000_000
# str(int) is quadratic before CPython 3.12; above this many bits _int_str
# converts by halves through Decimal instead.  On a 2-core host with
# CPython 3.11 the two tie near 40,000 bits (2.5 ms); at 10^5 bits str
# takes 16 ms against 6 ms, at 2 * 10^6 bits 6.7 s against 0.26 s.
STR_BITS = 40_000


def _nonneg(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text):
    value = _nonneg(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _bounded(text):
    # verify's --k, --m, --a and --b, bounded as setspec integers are
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value > MAX_VALUE:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_VALUE}")
    return value


def _real_str(man, exp):
    from .closedform import dyadic_str

    return dyadic_str(man, exp, DISPLAY_DIGITS)


def _fraction_str(x):
    # a dyadic Fraction, whose denominator is a power of 2
    return _real_str(x.numerator, 1 - x.denominator.bit_length())


def _complex_str(re, im, exp):
    # (re + im i) * 2^exp as (x + yj), or x alone where im = 0
    if not im:
        return _real_str(re, exp)
    return f"({_real_str(re, exp)} {'-' if im < 0 else '+'} {_real_str(abs(im), exp)}j)"


def _exact():
    """A local decimal context in which every operation is exact or raises."""
    import decimal

    traps = [decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow]
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=traps)
    return decimal.localcontext(ctx)


def _int_str(n):
    """str(n), through exact Decimals above STR_BITS bits, as CPython
    3.12's _pylong does: |n| = hi * 2^w + lo with w = 1024 * 2^j bits,
    the halves converted alike and joined by one product with the Decimal
    2^w, which libmpdec multiplies subquadratically."""
    if n.bit_length() <= STR_BITS:
        return str(n)
    from decimal import Decimal

    m = abs(n)
    with _exact():
        powers = [Decimal(1 << 1024)]  # powers[j] = 2^(1024 * 2^j)

        def convert(m, j):
            # Decimal(m) for 0 <= m < 2^(2048 * 2^j)
            if j < 0:
                return Decimal(m)
            w = 1024 << j
            if m.bit_length() <= w:
                return convert(m, j - 1)
            hi = m >> w
            return convert(hi, j - 1) * powers[j] + convert(m - (hi << w), j - 1)

        while m.bit_length() > 2048 << len(powers) - 1:
            powers.append(powers[-1] * powers[-1])
        return "-" * (n < 0) + str(convert(m, len(powers) - 1))


def _write_joined(strings, sep="", head="", tail=""):
    # head, the strings joined by sep, and tail, written a chunk at a time
    write = sys.stdout.write
    write(head)
    lead = ""
    for chunk in iter(lambda: sep.join(islice(strings, 256)), ""):
        write(lead + chunk)
        lead = sep
    write(tail)


def _refuse(bits, limit, what, hint=""):
    """ValueError (exit 2) when `what`, bounded by `bits` bits, is over `limit` bits."""
    if bits > limit:
        digits = int(bits * math.log10(2)) + 1
        raise ValueError(
            f"{what} may hold up to {bits} bits ({digits} decimal digits), "
            f"more than the {limit}-bit limit{hint}"
        )


def _series(A, limit, what=None):
    """c(0)..c(limit) as exact Decimals, to read in _exact(); ValueError
    (exit 2) before any expansion when (limit + 1) * composition_bits,
    a bound on the bits of all of them, is over MAX_SERIES_BITS."""
    from decimal import Decimal

    bits = (limit + 1) * genfun.composition_bits(A, limit)
    _refuse(bits, MAX_SERIES_BITS, what or f"the series to --limit {limit}")
    return islice(genfun.composition_terms(A, Decimal), limit + 1)


def _recurrence_bits(gf, n):
    # with D = 1 - sum d_i x^i, |c_n| <= sum|N_i| * (1 + sum|d_i|)^n by
    # induction on c_n = N_n + sum d_i c_{n-i}
    growth = 1 + sum(map(abs, gf.den.coeffs[1:]))
    return n * growth.bit_length() + sum(map(abs, gf.num.coeffs)).bit_length()


# -- subcommand handlers ----------------------------------------------------


def cmd_series(args):
    A = parse_setspec(args.setspec)
    with _exact():
        terms = map(str, _series(A, args.limit))
        if args.format == "csv":
            _write_joined(terms, ",", tail="\n")
        elif args.format == "json":  # json.dumps of the ints, byte for byte
            _write_joined(terms, ", ", "[", "]\n")
        else:
            _write_joined(f"{i} {v}\n" for i, v in enumerate(terms))
    return 0


def cmd_recurrence(args):
    import json

    from .recurrence import recurrence_from_gf

    A = parse_setspec(args.setspec)
    gf = genfun.composition_gf(A)
    order = max(gf.den.degree, gf.num.degree)
    with _exact():
        # the order from the reduced form, the seed streamed from the sparse
        # one as exact Decimals, whose str is that of the ints
        rec = recurrence_from_gf(gf, _series(A, order, f"the recurrence seed to n = {order}"))
        seed = map(str, rec.initial_terms)
        if args.format == "json":  # json.dumps of the ints, byte for byte
            fields = rec.to_dict()
            del fields["initial"]
            _write_joined(seed, ", ", json.dumps(fields)[:-1] + ', "initial": [', "]}\n")
        else:
            print(f"order: {rec.order}\ncoeffs: " + ", ".join(map(str, rec.coeffs)))
            print("corrections: " + (", ".join(f"{i}:{v}" for i, v in rec.corrections) or "none"))
            _write_joined(seed, ", ", "initial: ", "\n")
    return 0


def _closed_form(args):
    # (gf, its partial fractions) for closed-form and eval-closed
    from . import closedform

    closedform._check_digits(args.digits)  # refuse oversized precision before any work
    gf = genfun.composition_gf(parse_setspec(args.setspec))
    return gf, closedform.partial_fractions(gf, args.digits)


def cmd_closed_form(args):
    from . import closedform

    gf, pf = _closed_form(args)
    print(f"generating function: {gf}")
    # (), 1 or 1/2: the lemma's numerator never has the larger degree (README)
    print(f"polynomial part: {pf.poly_part[0] if pf.poly_part else 0}")
    if not pf.poles:
        print("poles: none (coefficients terminate)")
        return 0
    report = closedform.dominance_report(pf)
    rows = zip(pf.poles, pf.residue_coeffs, report.classifications)
    for i, (pole, (re, im, k), label) in enumerate(rows, start=1):
        a, b, s = pole.point
        print(
            f"pole {i}: {_complex_str(a, b, -s)}  "
            f"residue {_complex_str(re, im, -k)}  "
            f"modulus {_fraction_str(pole.modulus)}  [{label}]"
        )
    print(f"growth rate: {_fraction_str(report.growth_rate)}")
    print(f"unique dominant pole: {'yes' if report.unique_dominant else 'no'}")
    print(f"nearest-integer rounding valid: {'yes' if report.nearest_integer_valid else 'no'}")
    return 0


def cmd_eval_closed(args):
    from . import closedform

    value, _, scale, exact = closedform.eval_closed(_closed_form(args)[1], args.n)
    print(_real_str(value, -scale) if exact is None else exact)
    return 0


def cmd_nth(args):
    """`nth`, and `count` as nth without --mod: c_n exactly, refused (exit
    2) by MAX_EXACT_BITS on its bound before any generating function is
    built, or c_n mod m."""
    n = args.n
    if args.mod is not None and args.mod < 2:
        raise ValueError("--mod must be >= 2")
    if (args.setspec is None) == (args.recurrence_file is None):
        raise ValueError("nth takes a setspec or --recurrence-file, exactly one of them")
    if args.recurrence_file:
        import json

        from .recurrence import LinearRecurrence

        with open(args.recurrence_file, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ValueError(f"malformed recurrence file {args.recurrence_file}: {exc}") from None
        gf = LinearRecurrence.from_dict(data).to_gf()
        bits = _recurrence_bits(gf, n)
    else:
        A = parse_setspec(args.setspec)
        gf = None  # built after the refusal
        bits = genfun.composition_bits(A, n)
    if args.mod is None:
        hint = "; use `nth <setspec> <n> --mod M` for a residue"
        _refuse(bits, MAX_EXACT_BITS, f"the exact term at n = {n}", hint)
    if gf is None:
        gf = genfun.composition_gf(A)
    print(_int_str(gf.coefficient(n)) if args.mod is None else coefficient_mod(gf, n, args.mod))
    return 0


def cmd_bylength(args):
    from .bivariate import length_row, packed_width

    A = parse_setspec(args.setspec)
    # row n arrives packed in one coefficient of n + 1 slots
    bits = (args.n + 1) * 8 * packed_width(A, args.n)
    _refuse(bits, MAX_EXACT_BITS, f"the packed row at n = {args.n}")
    _write_joined(f"{i} {v}\n" for i, v in enumerate(length_row(A, args.n)))
    return 0


def cmd_table(args):
    specs = ("not:ap:1:3", "not:ap:2:3", "not:mod:3:0")
    with _exact():
        columns = [islice(_series(parse_setspec(spec), args.limit), 1, None) for spec in specs]
        _write_joined(f"{n},{a!s},{b!s},{c!s}\n" for n, (a, b, c) in enumerate(zip(*columns), 1))
    return 0


def cmd_verify(args):
    import json

    from . import oracle

    if args.family in ("thm2", "thm3"):
        # both seeds of the order k built hold c(j) <= 2^(j-1) for j = 1..k
        k = oracle._theorem_k(args.k, args.m if args.family == "thm3" else None)
        _refuse(k * (k + 1) // 2, MAX_SERIES_BITS, f"the seed of order {k}")
    params = {"k": args.k, "m": args.m, "a": args.a, "b": args.b}
    reports = oracle.family_reports(args.family, args.limit, args.seed, **params)
    lenient = args.family == "all"
    expected = [lenient and oracle.expected_discrepancy(rep) for rep in reports]
    overall = all(rep.passed or exp for rep, exp in zip(reports, expected))
    if args.format == "json":
        dicts = [dict(rep.to_dict(), expected_discrepancy=exp) for rep, exp in zip(reports, expected)]
        print(json.dumps({"passed": overall, "reports": dicts}))
    else:
        for rep, exp in zip(reports, expected):
            if rep.passed:
                status = "PASS"
            elif exp:
                status = "FAIL, documented"
            else:
                status = "FAIL"
            params = " ".join(f"{key}={val}" for key, val in rep.params.items())
            print(f"[{status}] {rep.name} {params}")
            for check in rep.checks:
                if check.passed:
                    print(f"    check pass: {check.name} ({len(check.rows)} rows)")
                else:
                    f = check.first_failure
                    print(
                        f"    check FAIL: {check.name}; first mismatch "
                        f"n={f.n}: lhs={f.lhs} rhs={f.rhs}"
                    )
            for note in rep.findings:
                print(f"    note: {note}")
        print("verification " + ("passed" if overall else "FAILED"))
    return 0 if overall else 1


# -- parser -----------------------------------------------------------------


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="compenum",
        description=(
            "Exact enumeration of integer compositions whose parts are "
            "restricted to, or must avoid, an eventually periodic set."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="number of compositions of n")
    p.add_argument("setspec")
    p.add_argument("n", type=_nonneg)
    p.set_defaults(handler=cmd_nth, mod=None, recurrence_file=None)

    p = sub.add_parser("series", help="count series c(0)..c(limit)")
    p.add_argument("setspec")
    p.add_argument("--limit", type=_nonneg, default=20)
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(handler=cmd_series)

    p = sub.add_parser("recurrence", help="linear recurrence for the counts")
    p.add_argument("setspec")
    p.add_argument("--format", choices=("json", "plain"), default="json")
    p.set_defaults(handler=cmd_recurrence)

    p = sub.add_parser(
        "closed-form", help="poles, residues, and dominance of the count series"
    )
    p.add_argument("setspec")
    p.add_argument("--digits", type=int, default=50)
    p.set_defaults(handler=cmd_closed_form)

    p = sub.add_parser("eval-closed", help="evaluate the numeric closed form at n")
    p.add_argument("setspec")
    p.add_argument("n", type=_nonneg)
    p.add_argument("--digits", type=int, default=50)
    p.set_defaults(handler=cmd_eval_closed)

    p = sub.add_parser("nth", help="single term, exact or modular")
    p.add_argument("setspec", nargs="?")
    p.add_argument("n", type=_nonneg)
    p.add_argument("--mod", type=int)
    p.add_argument("--recurrence-file", help="JSON recurrence instead of a setspec")
    p.set_defaults(handler=cmd_nth)

    p = sub.add_parser("bylength", help="counts of n split by number of parts")
    p.add_argument("setspec")
    p.add_argument("n", type=_nonneg)
    p.set_defaults(handler=cmd_bylength)

    p = sub.add_parser("table", help="three-column table of mod-3 count families")
    p.add_argument("--mod3", action="store_true", required=True)
    p.add_argument("--limit", type=_positive, default=20)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("verify", help="run a verification report family")
    p.add_argument(
        "family",
        choices=("thm1", "thm2", "thm3", "cayley", "zeilberger", "oracle", "all"),
    )
    for flag in ("--k", "--m", "--a", "--b"):
        p.add_argument(flag, type=_bounded)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=_positive, default=25)
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None):
    if hasattr(sys, "set_int_max_str_digits"):  # exact counts pass 4300 digits
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its diagnostic (exit 2) or help (exit 0)
        return exc.code if exc.code is not None else 0
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # SetSpecError and ClosedFormError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
