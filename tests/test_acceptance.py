"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test name carries its criterion number; the conftest hook prints a
PASS/FAIL line per criterion at the end of the run.
"""

import random
import time
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp

from compenum.bivariate import bivariate_table, odd_parts_by_length
from compenum.cli import main
from compenum.closedform import dominance_report, eval_closed, find_roots, partial_fractions
from compenum.genfun import composition_gf, composition_series, count
from compenum.oracle import (
    compositions,
    dp_count,
    random_partset,
    verify_cayley_shift,
    verify_sills_zeilberger,
    verify_theorem,
)
from compenum.partset import PartSet, parse_setspec
from compenum.polyring import IntPolynomial, coefficient_mod
from compenum.recurrence import (
    avoid_residue_recurrence,
    no_multiples_recurrence,
    recurrence_from_gf,
)

TABLE_20 = [
    (1, 0, 1, 1), (2, 1, 1, 2), (3, 1, 2, 3), (4, 1, 4, 6), (5, 3, 6, 11),
    (6, 3, 10, 20), (7, 5, 18, 37), (8, 9, 30, 68), (9, 11, 50, 125),
    (10, 19, 86, 230), (11, 29, 146, 423), (12, 41, 246, 778),
    (13, 67, 418, 1431), (14, 99, 710, 2632), (15, 149, 1202, 4841),
    (16, 233, 2038, 8904), (17, 347, 3458, 16377), (18, 531, 5862, 30122),
    (19, 813, 9938, 55403), (20, 1225, 16854, 101902),
]


def test_criterion_01_mod3_table_reproduced(capsys):
    start = time.perf_counter()
    code = main(["table", "--mod3", "--limit", "20"])
    elapsed = time.perf_counter() - start
    out, _ = capsys.readouterr()
    assert code == 0
    got = [tuple(int(v) for v in line.split(",")) for line in out.splitlines()]
    assert got == TABLE_20
    assert elapsed < 1.0


def test_criterion_02_odd_parts_are_fibonacci():
    A = parse_setspec("mod:2:1")
    f1, f2 = 1, 1
    for n in range(1, 41):
        assert count(A, n) == f1
        f1, f2 = f2, f1 + f2


def test_criterion_03_no_multiples_sequences():
    for k in range(2, 7):
        rec = no_multiples_recurrence(k)
        expect = (1,) + tuple(2 ** (j - 1) for j in range(1, k)) + (2 ** (k - 1) - 1,)
        assert rec.initial_terms == expect
        A = parse_setspec(f"not:mod:{k}:0")
        terms = rec.to_gf().series(40)
        for n in range(1, 41):
            assert terms[n] == count(A, n)


def test_criterion_04_avoid_residue_sequences_and_m1_flag():
    for k in range(2, 7):
        for m in range(2, k):
            terms = avoid_residue_recurrence(k, m).to_gf().series(40)
            A = parse_setspec(f"not:ap:{m}:{k}")
            for n in range(1, 41):
                assert terms[n] == count(A, n), (k, m, n)
    for k in range(2, 7):
        rep = verify_theorem("thm3", 25, k=k, m=1)
        seed = next(c for c in rep.checks if c.name == "stated initial values vs dp counts")
        assert [r.n for r in seed.rows if not r.ok] == list(range(2, k + 1))
        gf = next(c for c in rep.checks if c.name.startswith("generating function"))
        assert gf.passed
        assert rep.findings


ROOT_REFS = {
    (1, 0, -1, -2): (0.6572981061, -0.5786490531, 0.6525757633),
    (1, -1, 0, -2): (0.5897545123, -0.2948772562, 0.8722716255),
    (1, -1, -1, -1): (0.5436890127, -0.7718445063, 1.1151425080),
}

RESIDUE_FORMULAS = {
    (1, 0, -1, -2): lambda a: (1 + a) / (2 + 6 * a),
    (1, -1, 0, -2): lambda a: (1 + a * a) / (1 + 6 * a * a),
    (1, -1, -1, -1): lambda a: (1 + a) / (1 + 2 * a + 3 * a * a),
}

GF_SPECS = {
    (1, 0, -1, -2): "not:ap:1:3",
    (1, -1, 0, -2): "not:ap:2:3",
    (1, -1, -1, -1): "not:mod:3:0",
}


def _mpc(point):
    """An exact dyadic (a, b, s), a root's point or a residue, as an mpc."""
    a, b, s = point
    return mp.mp.make_mpc((from_man_exp(a, -s), from_man_exp(b, -s)))


def _value(result):
    """eval_closed's value as a Fraction."""
    return Fraction(result.value) / Fraction(2) ** result.scale


def test_criterion_05_printed_roots_and_residues():
    for cs, (re1, re2, im2) in ROOT_REFS.items():
        roots = find_roots(IntPolynomial(cs))
        vals = [_mpc(r.point) for r in roots]
        assert abs(vals[0] - re1) < 1e-8
        assert abs(vals[1] - complex(re2, -im2)) < 1e-8
        assert abs(vals[2] - complex(re2, im2)) < 1e-8
        pf = partial_fractions(composition_gf(parse_setspec(GF_SPECS[cs])))
        formula = RESIDUE_FORMULAS[cs]
        with mp.workdps(60):
            for pole, res in zip(pf.poles, pf.residue_coeffs):
                assert abs(_mpc(res) - formula(_mpc(pole.point))) < 1e-8


def test_criterion_06_closed_form_reconstruction():
    for spec in GF_SPECS.values():
        A = parse_setspec(spec)
        pf = partial_fractions(composition_gf(A), digits=50)
        assert abs(_value(eval_closed(pf, 0)) - 1) <= 1e-6
        for n in range(1, 31):
            exact = count(A, n)
            assert abs(_value(eval_closed(pf, n)) - exact) / max(1, exact) <= 1e-6


def test_criterion_07_nearest_integer_dominance():
    A = parse_setspec("not:mod:3:0")
    pf = partial_fractions(composition_gf(A))
    pole, res = pf.poles[0], pf.residue_coeffs[0]
    with mp.workdps(60):
        for n in range(1, 41):
            term = (_mpc(res) * _mpc(pole.point) ** (-n)).real
            exact = count(A, n)
            assert int(mp.nint(term)) == exact
            if n >= 4:
                assert abs(term - exact) / exact < 0.01
    validity = {
        "not:mod:3:0": True,
        "not:ap:1:3": False,
        "not:ap:2:3": False,
    }
    for spec, valid in validity.items():
        rep = dominance_report(partial_fractions(composition_gf(parse_setspec(spec))))
        assert rep.nearest_integer_valid is valid


def test_criterion_08_unrestricted_counts():
    A = PartSet.everything()
    for n in range(1, 31):
        assert count(A, n) == 2 ** (n - 1)


def test_criterion_09_pair_progression_and_shift():
    for a in range(1, 5):
        for b in range(1, 5):
            assert verify_sills_zeilberger(a, b, 25).passed
    rep = verify_cayley_shift(25)
    assert rep.passed
    assert any("unshifted" in f for f in rep.findings)


def test_criterion_10_bivariate_marginals_and_odd_binomials():
    rng = random.Random(42)
    for _ in range(10):
        A = random_partset(rng)
        table = bivariate_table(A, 25)
        for n in range(26):
            assert table.marginal(n) == count(A, n)
    odd = parse_setspec("mod:2:1")
    # confirm the closed form against enumeration first
    for n in range(15):
        by_len = {}
        for c in compositions(odd, n, limit=14):
            by_len[len(c)] = by_len.get(len(c), 0) + 1
        for m in range(n + 1):
            expect = by_len.get(m, 1 if (n, m) == (0, 0) else 0)
            assert odd_parts_by_length(n, m) == expect
    table = bivariate_table(odd, 14)
    for n in range(15):
        for m in range(15):
            entry = table.count(n, m)
            if entry:
                assert entry == odd_parts_by_length(n, m)


def test_criterion_11_enumeration_dp_gf_triangle():
    rng = random.Random(11)
    for _ in range(10):
        A = random_partset(rng, max_modulus=6)
        series = composition_series(A, 16)
        for n in range(17):
            brute = len(compositions(A, n, limit=16))
            assert brute == dp_count(A, n) == series[n]


def test_criterion_12_performance_targets():
    rec = recurrence_from_gf(composition_gf(parse_setspec("not:mod:3:0")))
    assert rec.order == 3
    best = min(
        _timed(lambda: coefficient_mod(rec.to_gf(), 10**12, 10**9 + 7)) for _ in range(5)
    )
    assert best < 0.010
    best_terms = min(_timed(lambda: rec.to_gf().series(10**4)) for _ in range(3))
    assert best_terms < 1.0


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
