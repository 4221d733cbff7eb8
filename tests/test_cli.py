import ast
import decimal
import json
import random
import subprocess
import sys
import time
from itertools import islice
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from compenum import cli, genfun
from compenum.bivariate import length_row, odd_parts_by_length
from compenum.cli import main
from compenum.genfun import composition_gf, composition_series, count
from compenum.oracle import dp_count_series, random_partset
from compenum.partset import parse_setspec
from compenum.polyring import IntPolynomial, RationalGF
from compenum.recurrence import no_multiples_recurrence, recurrence_from_gf

TABLE_20 = """\
1,0,1,1
2,1,1,2
3,1,2,3
4,1,4,6
5,3,6,11
6,3,10,20
7,5,18,37
8,9,30,68
9,11,50,125
10,19,86,230
11,29,146,423
12,41,246,778
13,67,418,1431
14,99,710,2632
15,149,1202,4841
16,233,2038,8904
17,347,3458,16377
18,531,5862,30122
19,813,9938,55403
20,1225,16854,101902
"""

STAR_NAMES = """
BivariateTable IntPolynomial LinearRecurrence PartSet RationalGF SetSpecError
avoid_residue_recurrence avoid_residue_seed_formula bivariate_table composition_gf
composition_series count length_row no_multiples_recurrence odd_parts_by_length
parse_setspec recurrence_from_gf
ClosedFormError ComplexRoot ConvergenceError DominanceReport EvalResult
PartialFraction RepeatedRootError dominance_report eval_closed find_roots
partial_fractions
DEFAULT_ENUM_LIMIT Check CheckRow VerificationReport compositions
dp_count dp_count_series dp_length_table expected_discrepancy family_reports length_slice_series
random_partset row_check_against_slices run_verification_suite suite_passed
verify_cayley_shift verify_sills_zeilberger verify_theorem verify_triangle
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "not:ap:1:3", "10")
    assert code == 0 and out == "19\n"
    code, out, _ = run_cli(capsys, "count", "set:", "5")
    assert code == 0 and out == "0\n"


def test_series_formats(capsys):
    code, out, _ = run_cli(capsys, "series", "not:mod:3:0", "--limit", "7", "--format", "csv")
    assert code == 0 and out == "1,1,2,3,6,11,20,37\n"
    code, out, _ = run_cli(capsys, "series", "mod:2:1", "--limit", "3")
    assert out == "0 1\n1 1\n2 1\n3 2\n"
    code, out, _ = run_cli(capsys, "series", "set:1,2", "--limit", "5", "--format", "json")
    assert json.loads(out) == [1, 1, 2, 3, 5, 8]


@given(st.integers(0, 10_000), st.integers(0, 200))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_series_prints_the_ints_of_composition_series(capsys, seed, limit):
    A = random_partset(random.Random(seed), max_modulus=12)
    terms = composition_series(A, limit)
    expected = {
        "plain": "".join(f"{i} {v}\n" for i, v in enumerate(terms)),
        "csv": ",".join(map(str, terms)) + "\n",
        "json": json.dumps(list(terms)) + "\n",
    }
    for fmt, text in expected.items():
        assert run_cli(capsys, "series", str(A), "--limit", str(limit), "--format", fmt) == (0, text, "")


def test_series_of_all_parts_is_the_powers_of_two(capsys):
    code, out, _ = run_cli(capsys, "series", "all", "--limit", "5000", "--format", "csv")
    same = out == ",".join(["1"] + [str(1 << n) for n in range(5000)]) + "\n"
    assert code == 0 and same  # not a diff of 3.8 MB on failure


def test_series_leaves_the_decimal_context_as_it_was(capsys):
    context = decimal.getcontext()
    before = repr(context)
    for argv, exit_code in (
        (("series", "not:mod:3:0", "--limit", "300"), 0),
        (("table", "--mod3", "--limit", "50"), 0),
        (("series", "all", "--limit", "40000"), 2),  # refused
    ):
        assert run_cli(capsys, *argv)[0] == exit_code
        assert decimal.getcontext() is context and repr(context) == before


def test_long_exact_results_print_as_str_does(tmp_path, capsys):
    # past STR_BITS count and nth convert by halves through Decimal
    code, out, _ = run_cli(capsys, "count", "all", "100000")
    assert code == 0 and out == f"{1 << 99999}\n"
    # (-3)^n, negative at odd n, through a recurrence file
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(recurrence_from_gf(RationalGF(IntPolynomial([1]), IntPolynomial([1, 3]))).to_dict()))
    for n in (25237, 25238, 60001):
        code, out, _ = run_cli(capsys, "nth", str(n), "--recurrence-file", str(path))
        assert code == 0 and out == f"{(-3) ** n}\n"


def test_int_str_matches_str_at_every_split():
    rng = random.Random(7)
    bits = [1, cli.STR_BITS, cli.STR_BITS + 1, 65536, 65537, 131072, 131073]
    bits += [rng.randrange(cli.STR_BITS, 140_000) for _ in range(6)]
    context = decimal.getcontext()
    for b in bits:
        for n in ((1 << b) - 1, 1 << b, rng.getrandbits(b), 10 ** (b * 3 // 10)):
            assert cli._int_str(n) == str(n) and cli._int_str(-n) == str(-n)
    assert decimal.getcontext() is context


def test_table_mod3_byte_for_byte(capsys):
    code, out, _ = run_cli(capsys, "table", "--mod3", "--limit", "20")
    assert code == 0
    assert out == TABLE_20


def test_table_requires_mode_flag(capsys):
    code, out, err = run_cli(capsys, "table", "--limit", "5")
    assert code == 2


def test_recurrence_json_and_nth_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "recurrence", "not:ap:2:3")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 3 and data["coeffs"] == [1, 0, 2]
    path = tmp_path / "rec.json"
    path.write_text(out)
    A = parse_setspec("not:ap:2:3")
    for n in (0, 1, 17, 60, 100):
        code, out, _ = run_cli(capsys, "nth", str(n), "--recurrence-file", str(path))
        assert code == 0
        assert out.strip() == str(count(A, n))


def test_recurrence_file_with_non_integers_refused(tmp_path, capsys):
    path = tmp_path / "rec.json"
    for text in (
        '{"order": 1, "coeffs": [1.7], "corrections": [], "initial": [1, 2.9]}',
        '{"order": 0, "coeffs": [], "corrections": [], "initial": [Infinity]}',
    ):
        path.write_text(text)
        code, out, err = run_cli(capsys, "nth", "5", "--recurrence-file", str(path))
        assert code == 2 and out == "" and err.startswith("error:")


def test_recurrence_file_that_is_not_a_full_object_names_what_is_wrong(tmp_path, capsys):
    path = tmp_path / "rec.json"
    for text, message in (
        ('{"order": 1, "coeffs": [1], "initial": [1, 2]}', "missing key 'corrections'"),
        ('{"order": 1}', "missing keys 'coeffs', 'corrections', 'initial'"),
        ("[1, 2]", "expected a JSON object, not list"),
        ('{"order": 0, "coeffs": "", "corrections": {}, "initial": [1]}', "'coeffs' must be an array, not str"),
    ):
        path.write_text(text)
        code, out, err = run_cli(capsys, "nth", "5", "--recurrence-file", str(path))
        assert (code, out, err) == (2, "", f"error: malformed recurrence dict: {message}\n")


def test_recurrence_file_that_is_not_json_names_the_file(tmp_path, capsys):
    path = tmp_path / "rec.json"
    for data, message in (
        (b"order 1", "Expecting value: line 1 column 1 (char 0)"),
        (b"\xd0\xff", "'utf-8' codec can't decode byte 0xd0 in position 0: invalid continuation byte"),
    ):
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "nth", "5", "--recurrence-file", str(path))
        assert (code, out, err) == (2, "", f"error: malformed recurrence file {path}: {message}\n")


def test_recurrence_seed_refused_before_any_term_streams(capsys, monkeypatch):
    # the seed c(0)..c(order) falls under the series bound: (order + 1) *
    # composition_bits is 4.0 * 10^8 bits at order 20000, admitted
    code, out, _ = run_cli(capsys, "recurrence", "not:mod:20000:0")
    assert code == 0 and out.startswith('{"order": 20000, ') and out.endswith("]}\n")

    def refuse(*args):
        raise AssertionError("seed streamed")

    monkeypatch.setattr(genfun, "composition_terms", refuse)
    for spec, bits in (("not:mod:60000:0", 3600060000), ("not:mod:22361:0", 500036682), ("mod:60000:1", 3600060000)):
        for fmt in ("json", "plain"):
            code, out, err = run_cli(capsys, "recurrence", spec, "--format", fmt)
            assert code == 2 and out == "" and err.count("\n") == 1
            assert f"seed to n = {spec.split(':')[-2]} may hold up to {bits} bits" in err


def test_recurrence_seeds_from_the_sparse_stream(capsys):
    # the seed streams from length_parts as exact Decimals, not from the
    # reduced denominator as ints, and prints the same bytes as the int
    # seed from that denominator, in both formats; the sparse set's reduced
    # row has 1357 taps, the stream's 10, and not:mod:300:0's 301-term seed
    # is written in more than one chunk
    sparse = "mod:840:588,718,809+157,698,877"
    specs = ("not:mod:3:0", "not:mod:40:0", "not:mod:300:0", "not:ap:20:9", "mod:9:2,6,7,8", "set:", "set:4", "ge:3", sparse)
    for spec in specs:
        code, out, _ = run_cli(capsys, "recurrence", spec)
        dense = recurrence_from_gf(composition_gf(parse_setspec(spec)))
        assert code == 0 and out == json.dumps(dense.to_dict()) + "\n"
        code, out, _ = run_cli(capsys, "recurrence", spec, "--format", "plain")
        assert code == 0 and out.splitlines()[3] == "initial: " + ", ".join(map(str, dense.initial_terms))


def test_recurrence_plain_format(capsys):
    code, out, _ = run_cli(capsys, "recurrence", "not:mod:3:0", "--format", "plain")
    lines = out.splitlines()
    assert lines[0] == "order: 3"
    assert lines[1] == "coeffs: 1, 1, 1"
    assert lines[2] == "corrections: 3:-1"
    assert lines[3] == "initial: 1, 1, 2, 3"


def test_nth_direct_and_modular(capsys):
    code, out, _ = run_cli(capsys, "nth", "not:mod:3:0", "20")
    assert out == "101902\n"
    code, out, _ = run_cli(
        capsys, "nth", "not:mod:3:0", "1000000000000", "--mod", "1000000007"
    )
    assert code == 0 and out == "297441196\n"


def test_nth_mod_from_recurrence_file_uses_its_seed(tmp_path, capsys):
    # this seed folds the boundary -1 in and does not replay from its
    # (empty) corrections, so N must come from the seed
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(no_multiples_recurrence(4).to_dict()))
    A = parse_setspec("not:mod:4:0")
    file_args = ("--recurrence-file", str(path))
    for p in (2, 10**9 + 7, 10**12):
        for n in (0, 4, 5, 6, 50, 1000):
            code, out, _ = run_cli(capsys, "nth", str(n), "--mod", str(p), *file_args)
            assert code == 0 and out == f"{count(A, n) % p}\n"
    code, out, _ = run_cli(capsys, "nth", str(10**15 + 7), "--mod", str(10**12), *file_args)
    assert code == 0 and out == "629620523060\n"
    # nth <n> --mod p --recurrence-file F is nth <setspec> <n> --mod p
    code, out, _ = run_cli(capsys, "nth", "not:mod:4:0", str(10**15 + 7), "--mod", str(10**12))
    assert code == 0 and out == "629620523060\n"


@given(st.integers(0, 10_000), st.integers(0, 400))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_merged_routes_print_alike(capsys, seed, n):
    # count and exact nth share one helper, bylength writes through
    # _write_joined, and the CLI's Decimal stream is composition_series
    A = random_partset(random.Random(seed), max_modulus=12)
    counted = run_cli(capsys, "count", str(A), str(n))
    assert counted[0] == 0 and run_cli(capsys, "nth", str(A), str(n)) == counted
    row = "".join(f"{i} {v}\n" for i, v in enumerate(length_row(A, n)))
    assert run_cli(capsys, "bylength", str(A), str(n)) == (0, row, "")
    with cli._exact():
        decimals = list(islice(genfun.composition_terms(A, decimal.Decimal), n + 1))
    assert composition_series(A, n) == tuple(map(int, decimals))


@given(st.integers(0, 10_000), st.integers(0, 60), st.integers(2, 10**12))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_route_gives_the_dp_count(tmp_path, capsys, seed, n, p):
    # count, exact and modular nth, from the setspec and from the file
    # `recurrence` writes, the series, the sum of the bylength row and
    # eval-closed wherever it certifies an integer
    A = random_partset(random.Random(seed), 6)
    spec, terms = str(A), dp_count_series(A, n)
    want = terms[n]
    code, text, _ = run_cli(capsys, "recurrence", spec)
    assert code == 0
    path = tmp_path / "rec.json"
    path.write_text(text)
    for argv, expected in (
        (("count", spec, str(n)), f"{want}\n"),
        (("nth", spec, str(n)), f"{want}\n"),
        (("nth", spec, str(n), "--mod", str(p)), f"{want % p}\n"),
        (("nth", str(n), "--mod", str(p), "--recurrence-file", str(path)), f"{want % p}\n"),
        (("series", spec, "--limit", str(n)), "".join(f"{i} {v}\n" for i, v in enumerate(terms))),
    ):
        assert run_cli(capsys, *argv) == (0, expected, ""), argv
    code, out, _ = run_cli(capsys, "bylength", spec, str(n))
    assert code == 0 and sum(int(line.split()[1]) for line in out.splitlines()) == want
    code, out, _ = run_cli(capsys, "eval-closed", spec, str(n))
    assert code in (0, 2)
    if code == 0 and out.strip().lstrip("-").isdigit():
        assert int(out) == want


def test_results_past_4300_digits(capsys):
    code, out, _ = run_cli(capsys, "count", "all", "14400")
    assert code == 0 and out == f"{2**14399}\n"
    a, b = 0, 1
    for _ in range(25000):
        a, b = b, a + b
    code, out, _ = run_cli(capsys, "nth", "mod:2:1", "25000")
    assert code == 0 and out == f"{a}\n"


def test_oversized_exact_results_refused_up_front(tmp_path, capsys, monkeypatch):
    from compenum import genfun

    def no_work(*args):
        raise AssertionError("the generating function was built")

    with monkeypatch.context() as patch:
        patch.setattr(genfun, "composition_gf", no_work)
        for argv in (("count", "all", "100000000"), ("nth", "not:mod:3:0", "2000001")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert "decimal digits" in err and "--mod" in err
    code, out, _ = run_cli(capsys, "nth", "not:mod:3:0", "100000000", "--mod", "97")
    assert code == 0 and 0 <= int(out) < 97  # a residue is never refused
    # a recurrence file is bounded by its own coefficients, not by 2^(n-1)
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(no_multiples_recurrence(4).to_dict()))
    code, out, err = run_cli(capsys, "nth", "1000000", "--recurrence-file", str(path))
    assert code == 2 and out == "" and "decimal digits" in err
    code, out, _ = run_cli(capsys, "nth", "1000", "--recurrence-file", str(path))
    assert code == 0 and out == f"{count(parse_setspec('not:mod:4:0'), 1000)}\n"


def test_huge_setspec_and_verify_integers_refused(capsys):
    for argv in (
        ("count", "ge:30000000", "5"),
        ("count", "mod:50000000:1", "5"),
        ("count", "set:40000000", "5"),
        ("nth", "ap:1:1000001", "5", "--mod", "7"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: integer above 1000000 (position ")
    code, out, _ = run_cli(capsys, "count", "mod:720720:1", "5")
    assert (code, out) == (0, "1\n")
    for flag in ("--k", "--m", "--a", "--b"):
        code, out, err = run_cli(capsys, "verify", "zeilberger", flag, "1000001")
        assert code == 2 and out == "" and f"argument {flag}: must be at most 1000000" in err
    code, out, err = run_cli(capsys, "verify", "thm2", "--k", "x")
    assert code == 2 and "argument --k: invalid int value: 'x'" in err
    code, out, _ = run_cli(capsys, "verify", "zeilberger", "--a", "1000000", "--b", "1", "--limit", "1")
    assert code == 0 and out.endswith("verification passed\n")


def test_verify_seed_refused_before_any_recurrence(capsys, monkeypatch):
    # the seeds of order k hold about k^2 / 2 bits; k = 31622, the last
    # order under MAX_SERIES_BITS, gets through to the recurrences
    from compenum import oracle

    def refuse(*args):
        raise AssertionError("a recurrence was built")

    monkeypatch.setattr(oracle, "no_multiples_recurrence", refuse)
    monkeypatch.setattr(oracle, "avoid_residue_recurrence", refuse)
    for family, k, m in (("thm2", 10**6, ()), ("thm2", 31623, ()), ("thm3", 10**6, ("--m", "1"))):
        code, out, err = run_cli(capsys, "verify", family, "--k", str(k), *m, "--limit", "1")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: the seed of order {k} may hold up to {k * (k + 1) // 2} bits (")
        assert err.endswith("more than the 500000000-bit limit\n")
    with pytest.raises(AssertionError, match="a recurrence was built"):
        run_cli(capsys, "verify", "thm2", "--k", "31622", "--limit", "1")


@pytest.mark.parametrize("m", [6, 7])
def test_verify_thm3_off_the_grid_m_takes_the_least_k(capsys, m):
    # --m 6 and --m 7 ran with k = 3 and exited 2 ("thm3 needs 1 <= m < k")
    code, out, err = run_cli(capsys, "verify", "thm3", "--m", str(m), "--limit", "5", "--format", "json")
    assert code == 0 and err == ""
    reports = json.loads(out)["reports"]
    assert [(r["params"]["k"], r["params"]["m"]) for r in reports] == [(m + 1, m)]


def test_verify_seed_of_the_order_m_implies_refused(capsys, monkeypatch):
    # --m alone builds order m + 1, so the seed bound applies to it as to --k
    from compenum import oracle

    def refuse(*args):
        raise AssertionError("a recurrence was built")

    monkeypatch.setattr(oracle, "no_multiples_recurrence", refuse)
    monkeypatch.setattr(oracle, "avoid_residue_recurrence", refuse)
    for m in (40000, 10**6):
        k = m + 1
        code, out, err = run_cli(capsys, "verify", "thm3", "--m", str(m), "--limit", "1")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: the seed of order {k} may hold up to {k * (k + 1) // 2} bits (")
    code, out, err = run_cli(capsys, "verify", "thm2", "--m", "1000000", "--limit", "1")
    assert code == 2 and err.startswith("error: verify thm2 takes no --m")


def test_sparse_part_sets_bounded_by_smallest_part(capsys):
    # c(n) <= (a + 1)^ceil((n - 1) / a) for smallest part a admits these
    code, out, _ = run_cli(capsys, "count", "set:7", "3000000")
    assert (code, out) == (0, "0\n")
    code, out, _ = run_cli(capsys, "nth", "set:7", "3000004")
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(capsys, "count", "set:", "5000000")
    assert (code, out) == (0, "0\n")
    code, out, err = run_cli(capsys, "count", "ge:2", "4000000")
    assert code == 2 and out == "" and "decimal digits" in err


def test_oversized_series_refused_before_any_expansion(capsys, monkeypatch):
    # (limit + 1) * composition_bits is 499,991,960 at limit 22360 and
    # 500,036,682 at 22361 for any set with the part 1; set:1 keeps the
    # admitted edge cheap, since every count is 1
    code, out, _ = run_cli(capsys, "series", "set:1", "--limit", "22360", "--format", "csv")
    assert code == 0 and out == ",".join(["1"] * 22361) + "\n"

    def refuse(*args):
        raise AssertionError("series expanded")

    # the CLI streams every series through this one stream
    monkeypatch.setattr(genfun, "composition_terms", refuse)
    for argv, bits in (
        (("series", "set:1", "--limit", "22361"), 500036682),
        (("series", "not:mod:3:0", "--limit", "40000"), 1600040000),
        (("table", "--mod3", "--limit", "40000"), 1600080001),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"up to {bits} bits" in err and "500000000-bit limit" in err
    # the largest exact-count series op, ge:2 --limit 3862, is about 1.5 * 10^7 bits
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "series", "ge:2", "--limit", "3862", "--format", "csv")
    assert code == 0 and out.count(",") == 3862


def test_oversized_digits_refused_before_any_work(capsys, monkeypatch):
    from compenum import closedform, genfun

    def no_work(*args):
        raise AssertionError("the generating function was built")

    monkeypatch.setattr(genfun, "composition_gf", no_work)
    limit = str(closedform.MAX_DIGITS)
    for argv in (
        ("closed-form", "all", "--digits", "1000000"),
        ("eval-closed", "all", "3", "--digits", str(closedform.MAX_DIGITS + 1)),
        ("closed-form", "all", "--digits", "15"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and limit in err


PINNED = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "spec,digits,name",
    [
        ("set:1,2,3,5,8,13,21,31", "80", "closed_form_set_1_2_3_5_8_13_21_31_digits80.txt"),
        ("not:mod:30:0", "16", "closed_form_not_mod_30_0_digits16.txt"),
        ("not:mod:300:0", "16", "closed_form_not_mod_300_0_digits16.txt"),
        ("ge:150", "50", "closed_form_ge_150_digits50.txt"),
    ],
)
def test_closed_form_pinned_output(capsys, spec, digits, name):
    code, out, _ = run_cli(capsys, "closed-form", spec, "--digits", digits)
    assert code == 0 and out == (PINNED / name).read_text()


def test_eval_closed(capsys):
    code, out, _ = run_cli(capsys, "eval-closed", "not:mod:3:0", "20")
    assert code == 0 and out == "101902\n"
    code, out, _ = run_cli(capsys, "eval-closed", "not:mod:3:0", "0")
    assert out == "1\n"


def test_closed_form_report(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "not:mod:3:0")
    assert code == 0
    assert "generating function: (1 - x^3) / (1 - x - x^2 - x^3)" in out
    assert "polynomial part: 1" in out
    assert out.count("pole ") == 3
    assert "growth rate: 1.83928675521" in out
    assert "nearest-integer rounding valid: yes" in out
    code, out, _ = run_cli(capsys, "closed-form", "not:ap:1:3")
    assert "nearest-integer rounding valid: no" in out


def test_closed_form_finds_roots_once(capsys, monkeypatch):
    from compenum import closedform

    # partial_fractions runs find_roots' pipeline on the form it built
    calls = []
    real = closedform._find_roots

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(closedform, "_find_roots", counted)
    code, _, _ = run_cli(capsys, "closed-form", "not:mod:3:0")
    assert code == 0 and len(calls) == 1


def test_closed_form_root_iteration_failure_exits_two(capsys, monkeypatch):
    from compenum import closedform

    # equal seeds refine to one root, so the root set does not certify
    monkeypatch.setattr(closedform, "_aberth_seeds", lambda taps, one: [0.5] * (taps[-1][0] - one))
    code, out, err = run_cli(capsys, "closed-form", "not:mod:3:0")
    assert code == 2 and out == ""
    assert err == "error: root inclusion disks overlap\n"


def test_oversized_closed_form_refused_before_root_work(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "closed-form", "set:1,4800", "--digits", "16")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == (
        "error: a closed form of degree 4800 at 16 digits is estimated at 244 s, "
        "more than the 10 s limit\n"
    )
    for argv in (
        ("eval-closed", "set:1,100000", "3"),
        ("closed-form", "not:mod:90:0", "--digits", "2000"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "estimated at" in err
    # the largest smoke-test input still answers
    code, out, _ = run_cli(capsys, "closed-form", "not:mod:300:0", "--digits", "16")
    assert code == 0 and out.count("pole ") == 300


def test_bylength(capsys):
    code, out, _ = run_cli(capsys, "bylength", "mod:2:1", "5")
    assert out == "0 0\n1 1\n2 0\n3 3\n4 0\n5 1\n"


def bylength_counts(capsys, setspec, n):
    code, out, _ = run_cli(capsys, "bylength", setspec, str(n))
    assert code == 0
    lines = [line.split() for line in out.splitlines()]
    assert [int(m) for m, _ in lines] == list(range(n + 1))
    return [int(c) for _, c in lines]


def test_bylength_odd_parts_at_600(capsys):
    counts = bylength_counts(capsys, "mod:2:1", 600)
    assert counts == [odd_parts_by_length(600, m) for m in range(601)]


def test_bylength_all_parts_at_400(capsys):
    counts = bylength_counts(capsys, "all", 400)
    assert counts == [0] + [comb(399, m - 1) for m in range(1, 401)]


def test_bylength_refuses_oversized_rows(capsys):
    # with 1 as the smallest part, (n + 1) * 8 * ceil(n / 8) bits:
    # 1,999,392 at n = 1411, 2,000,808 at 1412
    code, out, err = run_cli(capsys, "bylength", "all", "100000")
    assert code == 2 and out == ""
    assert "10000100000 bits" in err and "2000000-bit limit" in err
    code, _, err = run_cli(capsys, "bylength", "set:1", "1412")
    assert code == 2 and "2000808 bits" in err
    code, out, _ = run_cli(capsys, "bylength", "set:1", "1411")
    assert code == 0 and out.splitlines()[1410:] == ["1410 0", "1411 1"]
    assert len(out.splitlines()) == 1412


def test_cli_import_leaves_mpmath_unloaded():
    # count, nth, series and bylength need neither mpmath nor the oracle
    code = (
        "import sys, compenum.cli; "
        "print(sorted(m for m in ('mpmath', 'compenum.closedform', 'compenum.oracle') "
        "if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_each_command_loads_only_what_it_runs():
    # a fresh interpreter prints the modules `import compenum.cli` adds,
    # then those each command adds after the ones before it; no json
    # before the first snapshot, as literals go in and out by repr, and
    # series after the commands that must not load decimal
    argvs = [
        ["nth", "not:mod:3:0", "1000", "--mod", "7"],
        ["count", "not:mod:3:0", "20"],
        ["bylength", "not:mod:3:0", "20"],
        ["series", "not:mod:3:0", "--format", "json"],
        ["closed-form", "not:mod:3:0", "--digits", "16"],
        ["verify", "thm1", "--limit", "3"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "seen = set(sys.modules)\n"
        "def added():\n"
        "    new = sorted(set(sys.modules) - seen)\n"
        "    seen.update(new)\n"
        "    return new\n"
        "from compenum import cli\n"
        "steps = {'import': added()}\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    steps[argv[0]] = added()\n"
        "print(repr(steps))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    steps = {name: set(mods) for name, mods in ast.literal_eval(proc.stdout).items()}
    unused = {"dataclasses", "decimal", "json", "fractions", "compenum.bivariate", "compenum.recurrence",
              "compenum.closedform", "compenum.oracle"}
    assert "compenum.cli" in steps["import"] and not steps["import"] & unused
    for name in ("nth", "count"):
        assert not steps[name] & unused, name
    assert steps["bylength"] & unused == {"compenum.bivariate"}
    assert "decimal" in steps["series"] and not steps["series"] & (unused - {"decimal"})
    assert "compenum.closedform" in steps["closed-form"]
    assert not steps["closed-form"] & {"dataclasses", "compenum.oracle"}
    assert "compenum.oracle" in steps["verify"] and "dataclasses" not in steps["verify"]


def test_star_import_binds_every_export():
    # the eager names plus every lazy bivariate, recurrence, closedform
    # and oracle name
    code = "from compenum import *; print(' '.join(sorted(n for n in dir() if n[0] != '_')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.split() == sorted(STAR_NAMES.split())


def test_bylength_sizes_slots_by_the_smallest_part(capsys):
    # parts >= 7 bound every count of n = 1412 by 607 bits, not 1412
    counts = bylength_counts(capsys, "set:7", 1412)
    assert counts == [0] * 1413
    counts = bylength_counts(capsys, "set:7", 1414)
    assert counts == [1 if m == 202 else 0 for m in range(1415)]
    assert bylength_counts(capsys, "set:", 5000) == [0] * 5001


def test_parser_is_built_once(capsys):
    parser = cli._build_parser()
    code, out, err = run_cli(capsys, "bylength", "mod:2:1", "-1")
    assert code == 2 and out == "" and "must be nonnegative" in err
    code, out, err = run_cli(capsys, "bylength", "mod:2:1", "5")
    assert code == 0 and out == "0 0\n1 1\n2 0\n3 3\n4 0\n5 1\n" and err == ""
    assert cli._build_parser() is parser


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm1")
    assert code == 0 and "verification passed" in out
    code, out, _ = run_cli(capsys, "verify", "thm3", "--k", "3", "--m", "1")
    assert code == 1
    assert "verification FAILED" in out
    assert "stated initial values" in out
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 0
    assert "FAIL, documented" in out
    assert "verification passed" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["reports"]) == 49
    flagged = [r for r in data["reports"] if r["expected_discrepancy"]]
    assert len(flagged) == 10


def test_verify_refuses_flags_the_family_does_not_take(capsys):
    for family, flag in (("thm2", "--m"), ("cayley", "--k"), ("all", "--a"), ("thm1", "--b")):
        code, out, err = run_cli(capsys, "verify", family, flag, "3", "--limit", "3")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: verify {family} takes no {flag} (it takes ")
    code, out, _ = run_cli(capsys, "verify", "thm3", "--k", "4", "--limit", "3")
    assert code == 1 and out.startswith("[FAIL] thm3 k=4 m=1 limit=3\n")
    assert "\n[PASS] thm3 k=4 m=2 limit=3\n" in out
    code, out, _ = run_cli(capsys, "verify", "zeilberger", "--b", "3", "--limit", "3")
    assert code == 0 and out.startswith("[PASS] zeilberger a=1 b=3 limit=3\n")


@pytest.mark.parametrize(
    "argv,params",
    [
        (("thm3", "--k", "2"), [(2, 1)]),
        (("thm3", "--m", "3"), [(4, 3), (5, 3), (6, 3)]),
        (("thm3", "--k", "4"), [(4, 1), (4, 2), (4, 3)]),
        (("thm3", "--k", "3", "--m", "1"), [(3, 1)]),
        (("thm3", "--k", "8"), [(8, 2)]),  # off the grid: m takes its default
        (("thm2", "--k", "5"), [(5,)]),
        (("zeilberger", "--a", "2"), [(2, 1), (2, 2), (2, 3), (2, 4)]),
        (("zeilberger", "--b", "7"), [(1, 7)]),
    ],
)
def test_a_pinned_parameter_runs_the_grid_rows_that_hold_it(capsys, argv, params):
    # thm3 --k 2 and --m 3 were refused with exit 2 ("thm3 needs 1 <= m
    # < k"): each ran once with the other parameter at its default
    code, out, err = run_cli(capsys, "verify", *argv, "--limit", "5", "--format", "json")
    assert code in (0, 1) and err == ""
    keys = ("a", "b") if argv[0] == "zeilberger" else ("k", "m")[: len(params[0])]
    got = [tuple(r["params"][key] for key in keys) for r in json.loads(out)["reports"]]
    assert got == params


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("limit", [12, 25])
def test_verify_families_run_the_suite_grid(capsys, limit, seed):
    # each family's reports are the same as that family's inside `all`
    def reports(family):
        argv = ("verify", family, "--seed", str(seed), "--limit", str(limit), "--format", "json")
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 1)
        return [(r["name"], r["params"], r["checks"]) for r in json.loads(out)["reports"]]

    suite = reports("all")
    for family in ("thm1", "thm2", "thm3", "cayley", "zeilberger", "oracle"):
        assert reports(family) == [r for r in suite if r[0] == family], family


def test_usage_errors_exit_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "count", "not:ap:0:4", "3")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(capsys, "count", "mod:3:1")  # missing n
    assert code == 2
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2
    # nth takes a setspec or a recurrence file, exactly one, and then n
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(no_multiples_recurrence(4).to_dict()))
    for argv in (("not:mod:4:0", "5", "--recurrence-file", str(path)), ("5",)):
        code, out, err = run_cli(capsys, "nth", *argv)
        assert (code, out) == (2, "")
        assert err == "error: nth takes a setspec or --recurrence-file, exactly one of them\n"
    code, out, err = run_cli(capsys, "nth", "not:mod:4:0")  # missing n
    assert (code, out) == (2, "") and [line for line in err.splitlines() if "error:" in line] == [
        "compenum nth: error: argument n: 'not:mod:4:0' is not an integer"
    ]
    # a handler's own refusals print no usage line at all
    code, out, err = run_cli(capsys, "nth", "not:mod:3:0", "5", "--mod", "1")
    assert (code, out, err) == (2, "", "error: --mod must be >= 2\n")
    code, out, err = run_cli(capsys, "table", "--limit", "3")
    assert (code, out) == (2, "") and [line for line in err.splitlines() if "error:" in line] == [
        "compenum table: error: the following arguments are required: --mod3"
    ]


def test_deterministic_output(capsys):
    first = run_cli(capsys, "closed-form", "not:ap:2:3", "--digits", "40")
    second = run_cli(capsys, "closed-form", "not:ap:2:3", "--digits", "40")
    assert first == second


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "compenum.cli", "count", "all", "12"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2048\n"
