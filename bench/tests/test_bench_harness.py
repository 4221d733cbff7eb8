"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import contextlib
import io
import itertools
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from layers import Tracer  # noqa: E402

from compenum import (  # noqa: E402
    bivariate, cli, closedform, genfun, oracle, partset, polyring, recurrence,
)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def brute_force(parts, n):
    """Compositions of n with parts in `parts`, by enumeration."""
    if n == 0:
        return 1
    return sum(brute_force(parts, n - a) for a in range(1, n + 1) if a in parts)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_same_seed_same_operations(name):
    make = wl.WORKLOADS[name].make_ops
    assert make(7) == make(7)
    assert make(7) != make(8)


SETS = [
    ref.everything(),
    ref.at_least(3),
    ref.finite([2, 5]),
    ref.residue_classes(4, [1, 2]),
    ref.progression(2, 5),
    ref.negate(ref.residue_classes(3, [0])),
    ref.negate(ref.finite([1, 4])),
]


@pytest.mark.parametrize("parts", SETS, ids=lambda p: p.spec)
def test_reference_routes_agree_with_enumeration(parts):
    counts = [brute_force(parts, n) for n in range(16)]
    assert ref.direct_counts(parts, 15) == counts
    num, den = ref.unreduced_gf(parts)
    assert ref.series(num, den, 16) == counts
    assert [ref.coefficient_mod(num, den, n, 101) for n in range(16)] == [c % 101 for c in counts]
    row = [ref.direct_counts(parts, 12, weight=3)[12]]
    table = bivariate.bivariate_table(partset.parse_setspec(parts.spec), 12).row(12)
    assert row == [sum(c * 3**m for m, c in enumerate(table))]


def test_closed_form_counts_and_rows():
    families = [ref.everything(), ref.negate(ref.finite([])), ref.residue_classes(2, [1]),
                ref.negate(ref.progression(2, 2)), ref.at_least(2), ref.at_least(3)]
    for parts in families:
        counts = [brute_force(parts, n) for n in range(14)]
        if parts != ref.at_least(3):
            assert [ref.closed_form_count(parts, n) for n in range(14)] == counts
        assert [sum(ref.closed_form_row(parts, n)) for n in range(14)] == counts
    assert ref.closed_form_count(ref.residue_classes(3, [1]), 5) is None


def test_table_spellings_name_one_set():
    for category in range(4):
        for k in range(3, 13):
            spellings = wl._table_spellings(wl.random.Random(k), category, k)
            members = {
                tuple(v in partset.parse_setspec(p.spec) for v in range(1, 40)) for p in spellings
            }
            assert len(members) == 1 and len(set(spellings)) == 1


def _planted(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def test_exact_count_checker_rejects_wrong_answers():
    parts = ref.negate(ref.residue_classes(5, [0]))
    ops = [
        wl.Op(("count", "all", "60"), ref.everything(), 60),
        wl.Op(("nth", parts.spec, "300"), parts, 300),
        wl.Op(("series", parts.spec, "--limit", "40", "--format", "csv"), parts, 40),
        wl.Op(("series", "ge:2", "--limit", "30", "--format", "plain"), ref.at_least(2), 30),
    ]
    refs = wl.exact_count_refs(ops)
    for op in ops:
        out = run_cli(op.argv)
        assert wl.check_exact(op, out, refs) is None
        last = out.strip()[-1]
        wrong = out.strip()[:-1] + str((int(last) + 1) % 10)
        assert wl.check_exact(op, wrong, refs) is not None


def test_exact_count_checker_uses_closed_forms():
    # a wrong value that agrees modulo the prime is still caught for `all`
    op = wl.Op(("count", "all", "70"), ref.everything(), 70)
    refs = wl.exact_count_refs([op])
    assert wl.check_exact(op, str(2**69 + ref.PRIME), refs) is not None


def test_modular_checker_rejects_wrong_answers():
    parts = ref.negate(ref.residue_classes(7, [0]))
    op = wl.Op(("nth", parts.spec, "1000000", "--mod", "97"), parts, 10**6, 97)
    refs = wl.modular_nth_refs([op])
    out = run_cli(op.argv)
    assert wl.check_modular(op, out, refs) is None
    assert wl.check_modular(op, str((int(out) + 1) % 97), refs) is not None


def test_closed_form_checker_rejects_wrong_answers():
    parts = ref.negate(ref.residue_classes(4, [0]))
    op = wl.Op(("closed-form", parts.spec), parts)
    refs = wl.closed_form_refs([op])
    out = run_cli(op.argv)
    assert wl.check_closed_form(op, out, refs) is None
    pole_line = next(line for line in out.splitlines() if line.startswith("pole 1:"))
    value = pole_line.split()[2]
    plants = [
        _planted(out, "x^3", "x^2"),  # denominator
        _planted(out, pole_line, pole_line.replace(value, value[:5] + str((int(value[5]) + 1) % 10) + value[6:])),  # a pole
        _planted(out, "[inside]", "[outside]"),  # a label
        _planted(out, "growth rate: 1", "growth rate: 2"),
        _planted(out, "unique dominant pole: yes", "unique dominant pole: no"),
    ]
    for wrong in plants:
        assert wl.check_closed_form(op, wrong, refs) is not None


def test_eval_closed_checker_rejects_wrong_answers():
    parts = ref.at_least(3)
    op = wl.Op(("eval-closed", parts.spec, "40", "--digits", "20"), parts, 40)
    refs = wl.closed_form_refs([op])
    out = run_cli(op.argv)
    assert wl.check_closed(op, out, refs) is None
    assert wl.check_closed(op, str(float(out) + 1), refs) is not None


@pytest.mark.parametrize("parts", [ref.everything(), ref.negate(ref.residue_classes(3, [0]))],
                         ids=lambda p: p.spec)
def test_length_table_checker_rejects_wrong_answers(parts):
    op = wl.Op(("bylength", parts.spec, "40"), parts, 40)
    refs = wl.length_table_refs([op])
    out = run_cli(op.argv)
    assert wl.check_length_table(op, out, refs) is None
    lines = out.splitlines()
    # move one composition from m = 20 to m = 21: the row sum still matches
    m20, m21 = (int(lines[m].split()[1]) for m in (20, 21))
    lines[20], lines[21] = f"20 {m20 - 1}", f"21 {m21 + 1}"
    assert wl.check_length_table(op, "\n".join(lines), refs) is not None


def test_tracer_spans_nest_and_uninstall_restores():
    modules = [partset, polyring, genfun, recurrence, closedform, bivariate, oracle, cli]
    before = {(m, k): v for m in modules for k, v in vars(m).items()}
    methods = dict(vars(recurrence.LinearRecurrence))
    tracer = Tracer()
    tracer.install(modules)
    try:
        tracer.begin(0)
        run_cli(("count", "not:mod:3:0", "500"))
        layers, counts = tracer.end()
        tracer.begin(1)
        run_cli(("closed-form", "not:mod:3:0"))
        cf_layers, cf_counts = tracer.end()
    finally:
        tracer.uninstall()
    assert counts == {"recurrence.terms_len": 501}
    assert {"cli.self", "partset.parse_setspec", "genfun.composition_gf", "polyring.reduce",
            "recurrence.from_gf", "recurrence.terms", "genfun.count"} == set(layers)
    assert cf_counts == {"closedform.find_roots_calls": 2}
    assert "closedform.find_roots" in cf_layers
    names = {span[3] for span in tracer.spans}
    assert "polyring.poly_gcd" in names  # a helper, charged to polyring.reduce
    by_id = {span[1]: span for span in tracer.spans}
    for op, _, parent, _, start, end in tracer.spans:
        if parent is not None:
            assert by_id[parent][0] == op
            assert by_id[parent][4] <= start <= end <= by_id[parent][5]
    assert {(m, k): v for m in modules for k, v in vars(m).items()} == before
    assert dict(vars(recurrence.LinearRecurrence)) == methods


def test_same_denominator_sets_share_their_denominator():
    for d in wl.CLOSED_DEGREES:
        for kind in range(3):
            dens = {
                genfun.composition_gf(partset.parse_setspec(parts.spec)).den
                for parts in wl.same_denominator_sets(d, kind)
            }
            assert len(dens) == 1 and dens.pop().degree == d


def test_operation_lists_keep_their_shape():
    for seed in itertools.islice(range(100), 3):
        closed = wl.closed_form_ops(seed)
        assert [op.parts for op in closed].count(wl.REPEATED_FACTOR) == 1
        modular = wl.modular_nth_ops(seed)
        assert sum(op.recurrence_file is not None for op in modular) == len(modular) // 4
        for op in wl.exact_count_ops(seed):
            assert op.n * math.log10(ref.growth_rate(op.parts)) < 4200
