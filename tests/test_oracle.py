import random

import pytest

from compenum.oracle import (
    Check,
    CheckRow,
    VerificationReport,
    compositions,
    dp_count,
    dp_count_series,
    expected_discrepancy,
    random_partset,
    run_verification_suite,
    suite_passed,
    verify_cayley_shift,
    verify_sills_zeilberger,
    verify_theorem,
    verify_triangle,
)
from compenum.partset import PartSet, parse_setspec


def test_compositions_are_part_tuples():
    got = compositions(parse_setspec("set:1,2"), 3)
    assert got == ((1, 1, 1), (1, 2), (2, 1))
    assert type(got) is tuple and all(type(c) is tuple for c in got)


def test_enumeration_lexicographic():
    got = compositions(parse_setspec("set:1,2"), 4)
    assert got == ((1, 1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2))
    assert compositions(parse_setspec("mod:2:1"), 3) == ((1, 1, 1), (3,))
    assert compositions(PartSet.from_threshold(2), 3) == ((3,),)
    assert compositions(parse_setspec("all"), 0) == ((),)


def test_enumeration_limit_guard():
    with pytest.raises(ValueError):
        compositions(parse_setspec("all"), 26)
    # override is allowed; keep the set sparse so the blowup stays tame
    got = compositions(PartSet.from_threshold(13), 26, limit=26)
    assert got == ((13, 13), (26,))


def test_dp_counts_pinned():
    assert dp_count(parse_setspec("not:mod:3:0"), 7) == 37
    assert dp_count(parse_setspec("not:ap:2:3"), 7) == 18
    assert dp_count(parse_setspec("set:"), 5) == 0
    for n in range(1, 31):
        assert dp_count(PartSet.everything(), n) == 2 ** (n - 1)


def test_cayley_shift_report():
    rep = verify_cayley_shift(25)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "odd-part count of n vs min-part-2 count of n+1" in names
    # the unshifted comparison is flagged, naming the first honest case
    assert len(rep.findings) == 1
    assert "n = 1" in rep.findings[0]
    assert "n = 3: 2 vs 1" in rep.findings[0]


def test_cayley_shift_tiny_limit():
    assert verify_cayley_shift(1).passed
    with pytest.raises(ValueError):
        verify_cayley_shift(0)


def test_sills_zeilberger_grid():
    for a in range(1, 5):
        for b in range(1, 5):
            rep = verify_sills_zeilberger(a, b, 25)
            assert rep.passed, (a, b)


def test_sills_zeilberger_values():
    rep = verify_sills_zeilberger(1, 2, 10)
    rows = {r.n: r for r in rep.checks[0].rows}
    assert rows[4].lhs == 5 and rows[4].rhs == 5
    rep = verify_sills_zeilberger(2, 3, 10)
    rows = {r.n: r for r in rep.checks[0].rows}
    assert rows[7].lhs == 3 and rows[7].rhs == 3


def test_sills_zeilberger_equal_parts_convention():
    rep = verify_sills_zeilberger(2, 2, 12)
    assert rep.passed
    assert any("two marked copies" in f for f in rep.findings)
    # common value for a = b = 1 doubles at each step
    rep1 = verify_sills_zeilberger(1, 1, 8)
    assert rep1.passed
    assert [r.lhs for r in rep1.checks[0].rows] == [2**n for n in range(1, 9)]


def test_verify_theorem_families_pass():
    assert verify_theorem("thm1", 20).passed
    for k in range(2, 7):
        assert verify_theorem("thm2", 20, k=k).passed
    assert verify_theorem("thm3", 20, k=3, m=2).passed
    assert verify_theorem("all_2n1", 20).passed


def test_verify_theorem_rejects_bad_params():
    with pytest.raises(ValueError):
        verify_theorem("thm9")
    with pytest.raises(ValueError):
        verify_theorem("thm3", k=3, m=3)
    with pytest.raises(ValueError):
        verify_theorem("thm2", k=1)


def test_thm3_documented_seed_failure_shape():
    rep = verify_theorem("thm3", 5, k=3, m=1)
    assert not rep.passed
    by_name = {c.name: c for c in rep.checks}
    seq = by_name["theorem sequence vs dp counts"]
    seed = by_name["stated initial values vs dp counts"]
    gf = by_name["generating function recurrence vs dp counts"]
    assert seq.passed and gf.passed
    assert not seed.passed
    first = seed.first_failure
    assert (first.n, first.lhs, first.rhs) == (2, 0, 1)
    assert [r.n for r in seed.rows if not r.ok] == [2, 3]
    assert any("collapses to zero" in f for f in rep.findings)
    assert expected_discrepancy(rep)


def test_thm3_overcounting_seed_failures():
    # the closed-form initials also overshoot for these pairs
    expected_first_bad = {(5, 2): 5, (5, 3): 5, (6, 2): 5, (6, 3): 5, (6, 4): 6}
    for (k, m), first_bad in expected_first_bad.items():
        rep = verify_theorem("thm3", 25, k=k, m=m)
        assert not rep.passed, (k, m)
        seed = next(c for c in rep.checks if c.name.startswith("stated initial"))
        assert seed.first_failure.n == first_bad, (k, m)
        others = [c for c in rep.checks if c is not seed]
        assert all(c.passed for c in others)
        assert any("overcounts" in f for f in rep.findings)
        assert expected_discrepancy(rep)


def test_thm3_passing_pairs_have_no_findings():
    for k, m in ((3, 2), (4, 2), (4, 3), (5, 4), (6, 5)):
        rep = verify_theorem("thm3", 25, k=k, m=m)
        assert rep.passed and not rep.findings, (k, m)


def test_thm2_stated_initials_hold():
    rep = verify_theorem("thm2", 20, k=5)
    seed = next(c for c in rep.checks if c.name.startswith("stated initial"))
    assert seed.passed
    assert [r.lhs for r in seed.rows] == [1, 2, 4, 8, 15]


def test_verify_triangle():
    rep = verify_triangle(parse_setspec("not:mod:3:0"), limit=12)
    assert rep.passed
    assert rep.params["limit"] == 12
    assert "mod:3:1,2" in rep.params["set"]


def test_random_partset_deterministic():
    a = [random_partset(random.Random(5)) for _ in range(3)]
    b = [random_partset(random.Random(5)) for _ in range(3)]
    assert a == b


def test_report_serialization_shape():
    d = verify_theorem("thm1", 6).to_dict()
    assert d["name"] == "thm1" and d["passed"] is True
    row = d["checks"][0]["rows"][0]
    assert set(row) == {"n", "lhs", "rhs", "pass"}


def test_reports_are_frozen_tuples_compared_by_value():
    report = verify_theorem("thm1", 6)
    assert isinstance(report, tuple) and type(report.checks[0].rows[0]) is CheckRow
    assert report == verify_theorem("thm1", 6) and report != verify_theorem("thm1", 7)
    for record in (report, report.checks[0], report.checks[0].rows[0]):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    with pytest.raises(TypeError):
        hash(report)  # params is a dict
    rows = (CheckRow(1, 2, 2), CheckRow(2, 3, 4))
    check = Check("c", rows)
    assert not check.passed and check.first_failure == (2, 3, 4) and Check("c", ()).passed
    bare = VerificationReport("r", {"limit": 2}, (check,))
    assert bare.findings == () and not bare.passed
    assert bare.to_dict()["checks"][0]["rows"][1] == {"n": 2, "lhs": 3, "rhs": 4, "pass": False}


def test_full_suite_judged_clean_with_documented_flags():
    reports = run_verification_suite(seed=0, limit=25)
    assert len(reports) == 49
    failing = {(r.name, r.params.get("k"), r.params.get("m")) for r in reports if not r.passed}
    documented = {("thm3", k, 1) for k in range(2, 7)} | {
        ("thm3", 5, 2),
        ("thm3", 5, 3),
        ("thm3", 6, 2),
        ("thm3", 6, 3),
        ("thm3", 6, 4),
    }
    assert failing == documented
    assert all(expected_discrepancy(r) for r in reports if not r.passed)
    assert suite_passed(reports)
