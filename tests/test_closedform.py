import cmath
import math
import pickle
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath.libmp import from_man_exp

from compenum import closedform
from compenum.closedform import (
    GUARD_DIGITS,
    ClosedFormError,
    ConvergenceError,
    RepeatedRootError,
    dominance_report,
    eval_closed,
    find_roots,
    partial_fractions,
)
from compenum.genfun import composition_gf, count
from compenum.oracle import random_partset
from compenum.partset import parse_setspec
from compenum.polyring import IntPolynomial, RationalGF, _step, divmod_fractions

# denominator -> (real root, conjugate pair), 10 digit reference values
REFERENCE_ROOTS = {
    (1, 0, -1, -2): (0.6572981061, -0.5786490531, 0.6525757633),
    (1, -1, 0, -2): (0.5897545123, -0.2948772562, 0.8722716255),
    (1, -1, -1, -1): (0.5436890127, -0.7718445063, 1.1151425080),
}


def poly(cs):
    return IntPolynomial(tuple(cs))


def _mpc(point):
    """An exact dyadic (a, b, s) for (a + bi) / 2^s, a root's point or a
    residue, as an exact mpc."""
    a, b, s = point
    return mp.mp.make_mpc((from_man_exp(a, -s), from_man_exp(b, -s)))


def _mpf(x):
    """A dyadic Fraction as an exact mpf."""
    return mp.mp.make_mpf(from_man_exp(x.numerator, 1 - x.denominator.bit_length()))


def _value(result):
    """eval_closed's value as a Fraction."""
    return Fraction(result.value) / Fraction(2) ** result.scale


@pytest.mark.parametrize("cs,ref", sorted(REFERENCE_ROOTS.items()))
def test_cubic_roots_match_reference(cs, ref):
    real, re2, im2 = ref
    roots = find_roots(poly(cs))
    assert len(roots) == 3
    vals = [_mpc(r.point) for r in roots]
    assert abs(vals[0] - real) < 1e-8
    # conjugate pair sorted with the negative imaginary part first
    assert abs(vals[1] - complex(re2, -im2)) < 1e-8
    assert abs(vals[2] - complex(re2, im2)) < 1e-8
    for r in roots:
        assert r.residual < 1e-30


def test_residue_coefficients_match_pole_formulas():
    # each case: generating function spec, residue as a function of the pole
    cases = [
        ("not:ap:1:3", lambda a: (1 + a) / (2 + 6 * a)),
        ("not:ap:2:3", lambda a: (1 + a * a) / (1 + 6 * a * a)),
        ("not:mod:3:0", lambda a: (1 + a) / (1 + 2 * a + 3 * a * a)),
    ]
    for spec, formula in cases:
        pf = partial_fractions(composition_gf(parse_setspec(spec)))
        assert len(pf.poles) == 3
        with mp.workdps(60):
            for pole, res in zip(pf.poles, pf.residue_coeffs):
                assert abs(_mpc(res) - formula(_mpc(pole.point))) < 1e-8


def test_polynomial_parts():
    pf0 = partial_fractions(composition_gf(parse_setspec("not:mod:3:0")))
    assert pf0.poly_part == (Fraction(1),)
    pf1 = partial_fractions(composition_gf(parse_setspec("not:ap:1:3")))
    assert pf1.poly_part == (Fraction(1, 2),)


def test_constant_denominator_degenerates_gracefully():
    pf = partial_fractions(composition_gf(parse_setspec("set:")))
    assert pf.poles == () and pf.poly_part == (Fraction(1),)
    assert _value(eval_closed(pf, 0)) == 1 and eval_closed(pf, 0).exact == 1
    assert _value(eval_closed(pf, 3)) == 0 and eval_closed(pf, 3).exact == 0
    rep = dominance_report(partial_fractions(composition_gf(parse_setspec("set:"))))
    assert rep.classifications == () and not rep.nearest_integer_valid


def test_find_roots_input_validation():
    with pytest.raises(ValueError):
        find_roots(poly([]))
    with pytest.raises(ValueError):
        find_roots(poly([1, -1]), digits=15)
    with pytest.raises(ValueError):
        find_roots(poly([1, -1]), digits=True)
    assert find_roots(poly([7])) == ()


@pytest.mark.parametrize("digits", [16, 20, 32, 50, 80])
def test_equal_modulus_roots_ordered_by_argument(digits):
    # 1 - x^2 - x^6 has the real roots +-0.826..., of equal modulus
    roots = find_roots(poly([1, 0, -1, 0, 0, 0, -1]), digits)
    assert roots[0].point[1] == 0 and roots[0].point[0] > 0
    assert abs(_mpc(roots[1].point) + _mpc(roots[0].point)) < 1e-12


def test_root_iteration_failure_raises(monkeypatch):
    # equal seeds refine to one root, so the root set does not certify
    monkeypatch.setattr(closedform, "_aberth_seeds", lambda taps, one: [0.5] * (taps[-1][0] - one))
    with pytest.raises(ConvergenceError, match="^root inclusion disks overlap$"):
        find_roots(poly([1, -1, -1]))


@pytest.fixture
def polyroots_calls(monkeypatch):
    """mpmath.polyroots patched to record and refuse every call."""
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("mpmath.polyroots was called")

    monkeypatch.setattr(mp.mp, "polyroots", refuse)
    return calls


def test_uncertified_seed_raises_without_a_second_root_finder(monkeypatch, polyroots_calls):
    p = poly([1, 0, -1, 0, 0, 0, -1])  # real roots +-0.826...
    seeded = closedform._float_seeded_roots

    def near_duplicate(taps, one, prec):
        # move the seed of -0.826 to 1e-60 from +0.826: both residuals
        # pass, but the two disks overlap
        pts, s = seeded(taps, one, prec)
        lo = min(range(len(pts)), key=lambda i: pts[i][0])
        a, b = max(pts)
        pts[lo] = (a + (1 << s) // 10**60, b)
        return pts, s

    monkeypatch.setattr(closedform, "_float_seeded_roots", near_duplicate)
    with pytest.raises(ConvergenceError, match="^root inclusion disks overlap$"):
        find_roots(p)
    assert polyroots_calls == []


def test_seed_outside_the_float_range_raises(polyroots_calls):
    with pytest.raises(ConvergenceError, match="^Aberth seeds collided or left the float range$"):
        find_roots(poly([1, 10**400]))
    assert polyroots_calls == []


def _census_sets():
    rng = random.Random(12)
    sets = [parse_setspec(f"not:mod:{k}:0") for k in range(2, 61)]
    return sets + [random_partset(rng) for _ in range(200)]


def test_closed_form_records_are_frozen_tuples():
    pf = partial_fractions(composition_gf(parse_setspec("not:mod:3:0")), 16)
    for record in (pf, pf.poles[0], dominance_report(pf)):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], ())
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record and hash(copy) == hash(record)
    assert pickle.loads(pickle.dumps(pf.poles[0])).modulus == pf.poles[0].modulus
    # every field is given, and a record whose errors do not match its
    # poles is refused rather than summed over fewer poles
    with pytest.raises(TypeError):
        closedform.PartialFraction(pf.poly_part, pf.poles, pf.residue_coeffs)
    with pytest.raises(ValueError):
        eval_closed(pf._replace(residue_errors=()), 20)


@pytest.mark.parametrize("digits", [16, 50])
def test_every_census_denominator_certifies_on_the_one_path(polyroots_calls, digits):
    certified = 0
    for A in _census_sets():
        den = composition_gf(A).den
        try:
            roots = find_roots(den, digits)
        except RepeatedRootError:
            continue
        assert len(roots) == den.degree
        certified += 1
    assert polyroots_calls == [] and certified >= 250


def test_one_newton_refinement_and_one_residue_per_conjugate_pair(monkeypatch):
    # over the census sets above, Newton refines only the roots on and
    # above the axis, and each residue below it is its partner's exact
    # conjugate
    calls = []
    newton = closedform._newton

    def counted(*args):
        calls.append(args)
        return newton(*args)

    monkeypatch.setattr(closedform, "_newton", counted)
    for A in _census_sets():
        gf = composition_gf(A)
        if gf.den.degree < 1:
            continue
        calls.clear()
        try:
            pf = partial_fractions(gf, 16)
        except RepeatedRootError:
            continue
        points = [pole.point for pole in pf.poles]
        assert len(calls) == sum(b >= 0 for _, b, _ in points)
        assert sorted(points) == sorted((a, -b, s) for a, b, s in points)
        residues = dict(zip(points, zip(pf.residue_coeffs, pf.residue_errors)))
        for (a, b, s), ((re, im, k), err) in residues.items():
            if b < 0:
                assert residues[(a, -b, s)] == ((re, -im, k), err)


def _ratio_cases(seed, near_one):
    """A random_partset denominator D, then D and q = (1 - x) D, each with
    its taps and a random point: within 2^-10 of 1, the known root of q,
    for q when near_one, else of modulus 0.3 to 1.5."""
    rng = random.Random(seed)
    den = composition_gf(random_partset(rng)).den
    for stepped in (False, True):
        p = poly(_step([*den.coeffs, 0], 1)) if stepped else den
        taps = [(e, c) for e, c in enumerate(p.coeffs) if c]
        if stepped and near_one:
            z = 1 + math.ldexp(rng.random(), -10) * cmath.exp(2j * math.pi * rng.random())
        else:
            z = rng.uniform(0.3, 1.5) * cmath.exp(2j * math.pi * rng.random())
        yield p, taps, z


def _dense_ratio(p, z):
    """p(z) / p'(z) by dense Horner in mpmath, and the relative error a
    sum over p's coefficients can make: its condition number."""
    v = mp.polyval(p.coeffs[::-1], z)
    dv = mp.polyval(p.derivative().coeffs[::-1], z)
    size = sum(abs(c) * abs(z) ** k for k, c in enumerate(p.coeffs))
    return v / dv, size / abs(v) + size * p.degree / abs(z * dv)


@given(st.integers(0, 2**32), st.booleans())
@settings(max_examples=60, deadline=None)
def test_sparse_newton_ratio_matches_dense_horner(seed, near_one):
    # the float ratio of the Aberth sweeps and the fixed-point Newton step
    # read the taps of p, which is D or (1 - x) D; both must give p / p'
    w = 200
    for p, taps, z in _ratio_cases(seed, near_one):
        assume(p.degree >= 1)
        with mp.workdps(120):
            want, kappa = _dense_ratio(p, mp.mpc(z))
            got = closedform._float_ratio(taps, z)
            assert abs(got - want) <= 2**-40 * kappa * abs(want)
            a, b = closedform._fixed(z, w)
            want, kappa = _dense_ratio(p, mp.mpc(mp.ldexp(a, -w), mp.ldexp(b, -w)))
            step = closedform._newton_step(taps, a, b, w)
            got = mp.mpc(mp.ldexp(step[0], -w), mp.ldexp(step[1], -w))
            assert abs(got - want) <= 2 ** (16 - w) * kappa * abs(want)


def _assert_roots_match_mpmath(p, roots, digits, dps, **polyroots_args):
    """Each root within 10^-digits (1 + |xi|) and within its disk of its
    own root xi of p, the independent route: mpmath.polyroots at dps
    digits, far more precise than the disks.  Returns mpmath's roots."""
    with mp.workdps(dps):
        exact = mp.polyroots(p.coeffs[::-1], **polyroots_args)
        unmatched = list(exact)
        for r in roots:
            z = _mpc(r.point)
            xi = min(unmatched, key=lambda w: abs(w - z))
            unmatched.remove(xi)
            assert abs(xi - z) <= mp.mpf(10) ** -digits * (1 + abs(xi))
            assert abs(xi - z) <= _mpf(r.radius)
    return exact


@given(
    st.integers(0, 2**32),
    st.sampled_from((16, 20, 32, 50, 80)),
    st.sampled_from((1e-6, 1e-2, 0.3, 2.0)),
)
@settings(max_examples=40, deadline=None)
def test_roots_match_polyroots_inside_their_disks(seed, digits, nudge):
    rng = random.Random(seed)
    den = composition_gf(random_partset(rng)).den
    assume(den.degree >= 1)
    try:
        roots = find_roots(den, digits)
    except RepeatedRootError:
        assume(False)
    exact = _assert_roots_match_mpmath(
        den, roots, digits, 2 * digits + 60, maxsteps=2000, extraprec=200
    )
    # the certificate holds for any centres: move each by `nudge` times
    # the gap to its nearest neighbour, and whenever the disks come out
    # disjoint each must hold exactly one root; the moved centres are
    # integer points at the roots' scale 2^s.  Where the lemma's step is
    # taken the disks are those of q = (1 - x) D, whose roots are D's and
    # the known root 1
    s = roots[0].point[2]
    _, taps, one = closedform._sparse_form((), den.coeffs)
    points = [r.point[:2] for r in roots] + [(1 << s, 0)] * one
    exact = list(exact) + [mp.mpf(1)] * one
    with mp.workdps(digits + GUARD_DIGITS):
        centres = [_mpc((a, b, s)) for a, b in points]
        moved = []
        for i, (a, b) in enumerate(points):
            gap = min((abs(centres[i] - c) for j, c in enumerate(centres) if j != i), default=1)
            step = nudge * gap * mp.expjpi(2 * rng.random()) * 2**s
            moved.append((a + int(mp.nint(step.real)), b + int(mp.nint(step.imag))))
        try:
            disks = closedform._inclusion_disks(taps, moved, s, digits)
        except ConvergenceError:
            disks = None
    if disks is not None:
        with mp.workdps(2 * digits + 60):
            for (a, b), (radius, _) in zip(moved, disks):
                z = mp.mpc(mp.ldexp(a, -s), mp.ldexp(b, -s))
                assert sum(abs(xi - z) <= _mpf(radius) for xi in exact) == 1


@pytest.mark.parametrize("digits", [16, 50, 80])
@pytest.mark.parametrize("k", range(2, 41))
def test_roots_of_a_polynomial_vanishing_at_one(k, digits):
    # p = 1 + x + ... + x^k - (k + 1) x^(k+1) has the simple root 1, so
    # (1 - x) p, though sparser, has a double root there: p is read
    # unstepped, and Newton lands on 1 exactly.  polyroots starts from
    # the roots, which only saves it sweeps
    p = poly([1] * (k + 1) + [-(k + 1)])
    assert closedform._sparse_form((), p.coeffs)[2] is False
    roots = find_roots(p, digits)
    assert len(roots) == k + 1
    assert sum(r.point == (1 << r.point[2], 0, r.point[2]) for r in roots) == 1
    init = [_mpc(r.point) for r in roots]
    _assert_roots_match_mpmath(p, roots, digits, digits + 30, extraprec=60, roots_init=init)


@pytest.mark.parametrize("digits", [16, 50])
@pytest.mark.parametrize("k", range(3, 41))
def test_the_known_root_one_is_not_returned(k, digits):
    # from k = 3 on, D of not:mod:k:0 is read as q = (1 - x) D, whose
    # known root 1 is not a root of D: find_roots(D) returns D's roots
    den = composition_gf(parse_setspec(f"not:mod:{k}:0")).den
    assert closedform._sparse_form((), den.coeffs)[2]
    roots = find_roots(den, digits)
    assert len(roots) == den.degree
    assert not any(r.point == (1 << r.point[2], 0, r.point[2]) for r in roots)


@pytest.mark.parametrize("digits", [16, 50])
@pytest.mark.parametrize("coeffs", [(0, 1, 1), (0, 2, -3, 1), (0, 1), (0, 5, 0, 0, 1)])
def test_simple_root_at_zero(coeffs, digits):
    # p(0) = 0, where the float Newton ratio reads 0 / 0: the seeds are
    # those of p / x, 0 is taken exactly, and the disks on p certify all
    p = poly(coeffs)
    roots = find_roots(p, digits)
    assert len(roots) == p.degree
    assert [r.point[:2] for r in roots].count((0, 0)) == 1
    _assert_roots_match_mpmath(p, roots, digits, digits + 30)
    with pytest.raises(RepeatedRootError):
        find_roots(poly((0,) + coeffs), digits)  # x^2 | x p


def _assert_residues_match_mpmath(gf, pf, digits, dps, **polyroots_args):
    """Each residue of pf within 10^-digits (1 + |r|) of -N(xi) / (xi
    D'(xi)), and within its own error bound, the independent route:
    mpmath.polyroots at dps digits, then mpmath Horner at the root xi
    nearest the pole."""
    dprime = gf.den.derivative()
    with mp.workdps(dps):
        exact = mp.polyroots(gf.den.coeffs[::-1], **polyroots_args)
        for pole, r, err in zip(pf.poles, pf.residue_coeffs, pf.residue_errors):
            xi = min(exact, key=lambda w: abs(w - _mpc(pole.point)))
            want = -gf.num(xi) / (xi * dprime(xi))
            assert abs(_mpc(r) - want) <= mp.mpf(10) ** -digits * (1 + abs(want))
            assert abs(_mpc(r) - want) <= mp.ldexp(err, -r[2])


@given(st.integers(0, 2**32), st.sampled_from((16, 20, 32, 50, 80)))
@settings(max_examples=30, deadline=None)
def test_residues_match_mpmath_horner(seed, digits):
    gf = composition_gf(random_partset(random.Random(seed)))
    assume(gf.den.degree >= 1)
    try:
        pf = partial_fractions(gf, digits)
    except RepeatedRootError:
        assume(False)
    _assert_residues_match_mpmath(gf, pf, digits, 2 * digits + 60, maxsteps=2000, extraprec=200)


@pytest.mark.parametrize("digits", [16, 30, 80])
def test_residues_of_a_numerator_the_lemma_would_step(digits):
    # N = 2 (1 + ... + x^8) is sparser as (1 - x) N = 2 - 2x^9, but N is
    # read as its plain taps; D = 1 - 2x + x^3 vanishes at 1, one of its
    # poles, so neither is stepped
    gf = RationalGF(poly([2] * 9), poly([1, -2, 0, 1]))
    pf = partial_fractions(gf, digits)
    s = pf.poles[1].point[2]
    assert len(pf.poles) == 3 and pf.poles[1].point == (1 << s, 0, s)
    _assert_residues_match_mpmath(gf, pf, digits, 2 * digits + 60)


def test_partial_fractions_builds_the_denominators_sparse_form_once(monkeypatch):
    built = []
    sparse_form = closedform._sparse_form

    def counted(num, den):
        built.append(tuple(den))
        return sparse_form(num, den)

    monkeypatch.setattr(closedform, "_sparse_form", counted)
    for spec in ("not:mod:3:0", "not:mod:30:0", "mod:4:2", "not:ap:2:3", "set:1,30"):
        gf = composition_gf(parse_setspec(spec))
        built.clear()
        partial_fractions(gf, 16)
        assert built == [gf.den.coeffs]


def test_zero_numerator_is_the_zero_series():
    pf = partial_fractions(RationalGF(0, poly([1, -1, -1])), 16)
    assert pf == closedform.PartialFraction((), (), (), ())
    for n in (0, 1, 7):
        value, error, _, exact = eval_closed(pf, n)
        assert (value, error, exact) == (0, 0, 0)
    assert dominance_report(pf).classifications == ()


@given(st.integers(0, 2**32), st.sampled_from((1, 6, 12, 24)))
@settings(max_examples=200, deadline=None)
def test_polynomial_part_is_none_one_or_a_half(seed, max_modulus):
    # the lemma's N = 1 - x^k: with exceptions deg D = k + deg P > deg N,
    # without them both degrees are k and the quotient is 1 / (1 + q_k),
    # q_k = 1 where residue 0 is in the set; the reduction keeps this
    A = random_partset(random.Random(seed), max_modulus)
    gf = composition_gf(A)
    quot = divmod_fractions(gf.num, gf.den)[0]
    assert quot == (() if A.added or A.removed else (Fraction(1, 1 + (0 in A.residues)),))


@pytest.mark.parametrize("digits", [16, 50])
@pytest.mark.parametrize("k", range(2, 61))
def test_stepped_form_residues_match_mpmath_horner(k, digits):
    # from k = 3 on the denominator of not:mod:k:0 is read in the stepped
    # form 1 - 2x + x^(k+1), with the numerator times 1 - x; its poles
    # reach to about 2 pi / k from the known root z = 1.  polyroots
    # starts from the poles, which only saves it sweeps at degree 60
    gf = composition_gf(parse_setspec(f"not:mod:{k}:0"))
    assert closedform._sparse_form(gf.num.coeffs, gf.den.coeffs)[2] == (k >= 3)
    pf = partial_fractions(gf, digits)
    init = [_mpc(pole.point) for pole in pf.poles]
    _assert_residues_match_mpmath(gf, pf, digits, digits + 30, extraprec=60, roots_init=init)


@st.composite
def _bound_cases(draw):
    """Integer coefficients (dense or sparse random ones, or a
    random_partset denominator), as they are or times 1 - x, with their
    taps, and a dyadic point (a, b, s): of modulus 0.3 to 2, or for the
    stepped coefficients 2^-10 to 2^-40 from 1, their known root."""
    source = draw(st.sampled_from(("dense", "sparse", "partset")))
    if source == "dense":
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=41))
        assume(any(coeffs))
    elif source == "sparse":
        nonzero = st.integers(-9, 9).filter(bool)
        taps = draw(st.dictionaries(st.integers(0, 120), nonzero, min_size=1, max_size=5))
        coeffs = [taps.get(e, 0) for e in range(max(taps) + 1)]
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        coeffs = composition_gf(random_partset(rng, draw(st.sampled_from((6, 12, 24))))).den.coeffs
    stepped = draw(st.booleans())
    cs = _step([*coeffs, 0], 1) if stepped else coeffs
    taps = [(e, c) for e, c in enumerate(cs) if c]
    s = draw(st.integers(20, 200))
    turn = cmath.exp(2j * math.pi * draw(st.floats(0, 1)))
    if stepped and draw(st.booleans()):
        near = draw(st.integers(10, 40))
        s = max(s, near + 20)
        a, b = round(math.ldexp(turn.real, s - near)), round(math.ldexp(turn.imag, s - near))
        return cs, taps, ((1 << s) + a, b, s)
    z = draw(st.floats(0.3, 2)) * turn
    return cs, taps, (round(math.ldexp(z.real, s)), round(math.ldexp(z.imag, s)), s)


def _exact_value(coeffs, a, b, s):
    """p((a + bi) / 2^s) for p = sum(coeffs[k] x^k), as two Fractions."""
    zr, zi = Fraction(a, 2**s), Fraction(b, 2**s)
    pr = pi = Fraction(0)
    for c in reversed(coeffs):
        pr, pi = pr * zr - pi * zi + c, pr * zi + pi * zr
    return pr, pi


@given(_bound_cases())
@settings(max_examples=200, deadline=None)
def test_value_bound_holds_exactly(case):
    # the value bound V / 2^w of _point_bounds, a disk's residual, is at
    # least |q(z)|, and the evaluator's q(z) lies within its own error
    # bound, against q summed in Fractions
    cs, taps, (a, b, s) = case
    w, value, _, _ = closedform._point_bounds(taps, closedform._scale(taps), a, b, s)
    residual = Fraction(value, 2**w)
    er, ei = _exact_value(cs, a, b, s)
    assert er * er + ei * ei <= residual**2
    w = closedform._scale(taps)(a, b, s)
    qr, qi, err = closedform._sparse_eval(taps, a, b, s, w)
    assert (qr - er * 2**w) ** 2 + (qi - ei * 2**w) ** 2 <= err * err


@given(_bound_cases(), st.integers(0, 2**40), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_sparse_eval_bounds_hold_around_the_point(case, zerr, reach, turn):
    # with zerr, q and z q' at z bound q and xi q' at any xi within
    # zerr / 2^w of z, here one on a ray at `reach` of that distance
    q, taps, (a, b, s) = case
    w = closedform._scale(taps)(a, b, s)
    shift = cmath.exp(2j * math.pi * turn) * reach * zerr
    xa, xb = (a << (w - s)) + int(shift.real), (b << (w - s)) + int(shift.imag)
    assume((xa - (a << (w - s))) ** 2 + (xb - (b << (w - s))) ** 2 <= zerr * zerr)
    qr, qi, err, dr, di, derr = closedform._sparse_eval(taps, a, b, s, w, zerr, slope=True)
    assert closedform._sparse_eval(taps, a, b, s, w, zerr) == (qr, qi, err)
    # Newton reads the same floored values without the error terms
    assert closedform._sparse_eval(taps, a, b, s, w, None, slope=True) == (qr, qi, None, dr, di, None)
    er, ei = _exact_value(q, xa, xb, w)
    assert (qr - er * 2**w) ** 2 + (qi - ei * 2**w) ** 2 <= err * err
    er, ei = _exact_value([e * c for e, c in enumerate(q)], xa, xb, w)  # x q'(x)
    assert (dr - er * 2**w) ** 2 + (di - ei * 2**w) ** 2 <= derr * derr


@given(_bound_cases())
@settings(max_examples=200, deadline=None)
def test_slope_and_size_bounds_hold_exactly(case):
    # Z >= 2^s |z| and L <= 2^w |z q'(z)| of _point_bounds, against q'
    # summed in Fractions; at z = 0, L 2^s / 2^w is |q'(0)| and Z = 1
    cs, taps, (a, b, s) = case
    scale = closedform._scale(taps)
    w, _, slope, size = closedform._point_bounds(taps, scale, a, b, s)
    assert size * size >= a * a + b * b
    dr, di = _exact_value([k * c for k, c in enumerate(cs)][1:], a, b, s)
    zr, zi = Fraction(a, 2**s), Fraction(b, 2**s)
    er, ei = (dr * zr - di * zi) * 2**w, (dr * zi + di * zr) * 2**w  # 2^w z q'(z)
    assert slope <= 0 or slope * slope <= er * er + ei * ei
    w, _, slope, size = closedform._point_bounds(taps, scale, 0, 0, s)
    assert size == 1 and slope == abs(cs[1] if len(cs) > 1 else 0) << (w - s)


def _factored(rng):
    """An integer polynomial as a product of one to four random factors
    p x - q and x^2 + u x + v, some squared, with its roots to the
    working precision: roots that are close, repeated, conjugate, 0."""
    cs, roots = [1], []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            p, q = rng.randint(1, 2 ** rng.randint(0, 12)), rng.randint(-40, 40)
            factor, new = [-q, p], [mp.mpf(q) / p]
        else:
            u, v = rng.randint(-6, 6), rng.randint(-9, 9)
            disc = mp.sqrt(mp.mpc(u * u - 4 * v))
            factor, new = [v, u, 1], [(-u + disc) / 2, (-u - disc) / 2]
        for _ in range(2 if rng.random() < 0.2 else 1):
            cs = [sum(cs[i] * factor[k - i] for i in range(len(cs)) if 0 <= k - i < len(factor))
                  for k in range(len(cs) + len(factor) - 1)]
            roots += new
    return cs, roots


@given(st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_an_accepted_disk_holds_exactly_one_root(seed):
    # each point passes or fails on its own, and a disk that passes holds
    # exactly one root of q, counted with multiplicity: points at 2^-k
    # from a root, anywhere in a box, and 0
    rng = random.Random(seed)
    with mp.workdps(80):
        cs, roots = _factored(rng)
        taps = [(e, c) for e, c in enumerate(cs) if c]
        s = rng.randint(20, 70)
        trials = [mp.mpc(0)] + [mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4)]
        trials += [
            xi + mp.ldexp(rng.random(), -rng.randint(0, s)) * mp.expjpi(2 * rng.random())
            for xi in roots
        ]
        for z in trials:
            a, b = int(mp.nint(mp.ldexp(z.real, s))), int(mp.nint(mp.ldexp(z.imag, s)))
            try:
                [(radius, _)] = closedform._inclusion_disks(taps, [(a, b)], s, 16)
            except ConvergenceError:
                continue
            z = mp.mpc(mp.ldexp(a, -s), mp.ldexp(b, -s))
            assert sum(abs(xi - z) <= _mpf(radius) for xi in roots) == 1


def test_disks_certify_exact_points_and_refuse_others():
    # 1 + x^2 at its roots +-i and at points off them: a point between
    # the roots, or near one with a disk that would reach the other, fails
    s = 40
    taps = [(0, 1), (2, 1)]
    disks = closedform._inclusion_disks(taps, [(0, 1 << s), (0, -(1 << s))], s, 16)
    assert all(radius <= Fraction(8, 2**s) for radius, _ in disks)
    for point in ((0, 0), (1 << (s - 1), 0), (0, 1 << (s - 1)), (1 << s, 1 << s)):
        with pytest.raises(ConvergenceError, match="^root inclusion disks overlap$"):
            closedform._inclusion_disks(taps, [point], s, 16)


def _all_pairs(pts, radii, s, digits):
    """_sweep's verdict from every pair: overlapping disks first, then
    points closer than 10^-(digits-10); None where neither."""
    overlap = close = False
    for i, (a, b) in enumerate(pts):
        for j, (c, e) in enumerate(pts[:i]):
            gap = (a - c) ** 2 + (b - e) ** 2
            overlap = overlap or (radii[i] + radii[j]) ** 2 >= gap
            close = close or gap * 10 ** (2 * (digits - 10)) <= 4**s
    if overlap:
        return "root inclusion disks overlap"
    return "poles too close to separate at this precision" if close else None


@given(st.integers(0, 2**32), st.sampled_from((16, 17)))
@settings(max_examples=400, deadline=None)
def test_sweep_matches_all_pairs(seed, digits):
    # random points at scale 2^24, where the threshold 10^-(digits-10)
    # is about 17 or 2 units: exact conjugates, equal real parts, close
    # pairs, and radii from 0 to far past the spacing
    rng = random.Random(seed)
    s, pts, radii = 24, [], []
    for _ in range(rng.randint(0, 14)):
        kind = rng.randrange(5) if pts else 4
        a, b = rng.choice(pts) if pts else (0, 0)
        if kind == 0:
            b = -b
        elif kind == 1:
            b = rng.randint(-1000, 1000)
        elif kind == 2:
            a, b = a + rng.randint(-12, 12), b + rng.randint(-12, 12)
        elif kind == 3:
            a, b = a + rng.randint(-300, 300), b + rng.randint(-300, 300)
        else:
            a, b = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
        pts.append((a, b))
        radii.append(rng.choice((0, rng.randint(0, 3), rng.randint(0, 40), rng.randint(0, 400))))
    try:
        closedform._sweep(pts, radii, s, digits)
        verdict = None
    except ConvergenceError as exc:
        verdict = str(exc)
    assert verdict == _all_pairs(pts, radii, s, digits)


def _in_ball(ball, reach, t):
    """An exact Gaussian rational (re, im) within the error of the ball
    (re, im, err): at `reach` times err from the centre, on the ray
    through the rational point ((1 - t^2), 2t) / (1 + t^2) of the unit
    circle."""
    re, im, err = ball
    scale = reach * err / (1 + t * t)
    return re + (1 - t * t) * scale, im + 2 * t * scale


_balls = st.tuples(
    st.integers(-(2**90), 2**90), st.integers(-(2**90), 2**90), st.integers(0, 2**60)
)
_reaches = st.one_of(st.just(Fraction(1)), st.fractions(0, 1))
_turns = st.fractions(-(10**6), 10**6, max_denominator=10**6)


@given(_balls, _balls, st.integers(0, 120), _reaches, _turns, _reaches, _turns)
@settings(max_examples=300, deadline=None)
def test_ball_mul_bounds_every_product_of_the_balls(x, y, h, rx, tx, ry, ty):
    # every exact product X Y / 2^h of X in x's ball and Y in y's lies
    # within the returned error of the floored result
    pr, pi, err = closedform._ball_mul(x, y, h)
    assert closedform._ball_mul((*x[:2], None), y, h) == (pr, pi, None)
    (xr, xi), (yr, yi) = _in_ball(x, rx, tx), _in_ball(y, ry, ty)
    er, ei = (xr * yr - xi * yi) / 2**h, (xr * yi + xi * yr) / 2**h
    assert (er - pr) ** 2 + (ei - pi) ** 2 <= err * err


@pytest.mark.parametrize("digits", [16, 50, 80])
@pytest.mark.parametrize("direction", [1, 1j])
def test_pole_separation_checked_at_the_threshold(monkeypatch, digits, direction):
    # poles twice the separation threshold apart are not refused as too
    # close; being fake, they fail the normalization check instead
    gf = composition_gf(parse_setspec("not:mod:3:0"))
    poles = []

    def fake_roots(poly, taps, one, digits):
        return tuple(closedform.ComplexRoot(pt, Fraction(0), Fraction(0)) for pt in poles)

    monkeypatch.setattr(closedform, "_find_roots", fake_roots)
    with mp.workdps(digits + GUARD_DIGITS):
        s = mp.mp.prec + closedform.NEWTON_GUARD_BITS
    # points (a, b, s) for (a + bi) / 2^s; the step is twice the
    # separation threshold 10^-(digits-10)
    one = 1 << s
    step = 2 * one // 10 ** (digits - 10)
    dx, dy = (step, 0) if direction == 1 else (0, step)
    # a far pole lies between the close pair in real part
    a, b = one // 2, one // 4
    poles[:] = [(a, b, s), (a + dx // 2, b + dy // 2 + 5 * one, s), (a + dx, b + dy, s)]
    with pytest.raises(ConvergenceError, match="n = 0"):
        partial_fractions(gf, digits)


@pytest.mark.parametrize("digits", [16, 50])
def test_residual_depends_only_on_its_own_root(digits):
    # 1 - x - x^2 - x^3, read as q = 1 - 2x + x^4; moving another point,
    # here the known root 1 of q, by one unit at scale 2^s leaves the
    # first point's residual bit-identical
    p = poly([1, -1, -1, -1])
    _, taps, one = closedform._sparse_form((), p.coeffs)
    assert one
    with mp.workdps(digits + GUARD_DIGITS):
        pts, s = closedform._float_seeded_roots(taps, one, mp.mp.prec)
        pts = closedform._pair(pts, s, digits)
        assert pts[1] == (1 << s, 0)
        before = closedform._inclusion_disks(taps, pts, s, digits)
        a, b = pts[1]
        pts[1] = (a + 1, b)
        after = closedform._inclusion_disks(taps, pts, s, digits)
    assert after[0][1] == before[0][1]


@pytest.mark.parametrize("digits", [16, 50, 80])
def test_roots_are_their_points_and_intervals_bracket_their_disks(digits):
    for k in range(1, 31):
        den = composition_gf(parse_setspec(f"not:mod:{k}:0")).den
        for root in find_roots(den, digits):
            a, b, s = root.point
            norm = Fraction(a * a + b * b, 4**s)
            # the modulus is |z| rounded down at scale 2^s
            modulus = root.modulus
            assert modulus**2 <= norm < (modulus + Fraction(1, 2**s)) ** 2
            # lo <= |z| - r and hi >= |z| + r, compared as squares, and
            # no wider than the disk plus one unit at scale 2^s
            lo, hi = closedform._modulus_interval(root)
            r = root.radius
            assert lo + r <= 0 or (lo + r) ** 2 <= norm
            assert hi - r >= 0 and (hi - r) ** 2 >= norm
            assert hi - lo <= 2 * r + Fraction(1, 2**s)


@pytest.mark.parametrize("digits", [16, 50, 80])
def test_purely_imaginary_poles_keep_an_exact_zero_real_part(digits):
    # mod:4:2 has the poles +-0.786... and +-1.272...i
    pf = partial_fractions(composition_gf(parse_setspec("mod:4:2")), digits)
    for pole in pf.poles[2:]:
        a, b, s = pole.point
        assert a == 0 and abs(b) > 1 << s


def _fake_roots(monkeypatch, pts):
    """Make find_roots start from the exact dyadic points x + yi, given
    as pairs (x, y) of Fractions, in place of the refined seeds."""

    def seeded(taps, one, prec):
        s = prec + closedform.NEWTON_GUARD_BITS
        return [(int(x * 2**s), int(y * 2**s)) for x, y in pts], s

    monkeypatch.setattr(closedform, "_float_seeded_roots", seeded)


@pytest.mark.parametrize("digits", [16, 50, 80])
def test_find_roots_refuses_roots_closer_than_the_threshold(monkeypatch, digits):
    # (x - 1)(N x - N - 1) has the roots 1 and 1 + 1/N, exact dyadics
    # for N = 2^k; the gap 2^-k is at most half of 10^-(digits-10) for
    # the first k, at least twice it for the second
    close = (2 * 10 ** (digits - 10)).bit_length()
    apart = (10 ** (digits - 10) // 2).bit_length() - 1
    for k, refused in ((close, True), (apart, False)):
        big = 1 << k
        p = poly([big + 1, -(2 * big + 1), big])
        _fake_roots(monkeypatch, [(1, 0), (1 + Fraction(1, big), 0)])
        if refused:
            with pytest.raises(ConvergenceError, match="^poles too close to separate at this precision$"):
                find_roots(p, digits)
        else:
            roots = find_roots(p, digits)
            assert [Fraction(a, 2**s) for a, _, s in (r.point for r in roots)] == [
                1,
                Fraction(big + 1, big),
            ]


def test_roots_only_above_the_axis_do_not_pair(monkeypatch):
    # 1 + x^2 has the roots +-i; two points above the axis leave none below
    _fake_roots(monkeypatch, [(0, 1), (1, 1)])
    with pytest.raises(ConvergenceError, match="^complex roots do not split into conjugate pairs$"):
        find_roots(poly([1, 0, 1]))


@pytest.mark.parametrize("digits", [16, 50])
def test_real_parts_below_eps_snap_to_zero(monkeypatch, digits):
    # 1 + x^2 has the roots +-i; a real part below 2^(1 - prec) is set
    # to 0, one at 2^(1 - prec) is kept
    with mp.workdps(digits + GUARD_DIGITS):
        eps = Fraction(2, 2**mp.mp.prec)
    for shift, kept in ((eps / 2, 0), (eps, eps)):
        _fake_roots(monkeypatch, [(shift, 1), (shift, -1)])
        roots = find_roots(poly([1, 0, 1]), digits)
        points = [(Fraction(a, 2**s), Fraction(b, 2**s)) for a, b, s in (r.point for r in roots)]
        assert points == [(kept, -1), (kept, 1)]


def test_real_parts_snap_to_zero_on_a_real_input():
    # at 50 digits Newton puts the purely imaginary pair of
    # mod:4:0,1,3-1,7,8 one unit off the axis: a = 1 at scale 2^s
    den = composition_gf(parse_setspec("mod:4:0,1,3-1,7,8")).den
    imaginary = [r.point for r in find_roots(den, 50) if not r.point[0]]
    assert len(imaginary) == 2 and abs(Fraction(imaginary[0][1], 2 ** imaginary[0][2])) > 0.86


def test_residual_above_the_bound_is_refused_with_five_digits(monkeypatch):
    # the residual bound is 10^-(digits - 10) times the largest |c|; a
    # residual past it is refused and printed as nstr(x, 5) prints it
    disks = closedform._inclusion_disks
    residual = Fraction(123456789, 2**40)  # about 1.1e-4

    def loose(taps, pts, s, digits):
        return [(radius, residual) for radius, _ in disks(taps, pts, s, digits)]

    monkeypatch.setattr(closedform, "_inclusion_disks", loose)
    shown = mp.nstr(mp.ldexp(123456789, -40), 5)
    with pytest.raises(ConvergenceError, match=f"^residual {shown} above certification bound$"):
        find_roots(poly([1, -1, -1]), 16)  # bound 10^-6
    assert len(find_roots(poly([1000, -1, -1]), 16)) == 2  # bound 10^-3


def test_duplicated_root_above_the_axis_overlaps(monkeypatch):
    # (1 + x^2)(4 + x^2) has the roots +-i and +-2i; i twice above the
    # axis passes the count, and its exact conjugates repeat too
    _fake_roots(monkeypatch, [(0, 1), (0, 1), (0, -1), (0, -2)])
    with pytest.raises(ConvergenceError, match="^root inclusion disks overlap$"):
        find_roots(poly([4, 0, 5, 0, 1]))


def test_repeated_root_detected():
    with pytest.raises(RepeatedRootError):
        find_roots(poly([1, -2, 1]))  # (1 - x)^2
    with pytest.raises(RepeatedRootError):
        partial_fractions(RationalGF(poly([1, 1]), poly([1, -2, 1])))


def test_eval_closed_reconstructs_counts():
    for spec in ("not:ap:1:3", "not:ap:2:3", "not:mod:3:0"):
        A = parse_setspec(spec)
        pf = partial_fractions(composition_gf(A))
        for n in range(0, 31):
            exact = count(A, n)
            got = eval_closed(pf, n)
            assert abs(_value(got) - exact) / max(1, exact) <= 1e-6
            assert got.error < 1e-20 * 2**got.scale and got.exact == exact


@pytest.mark.parametrize("digits", [16, 20, 32, 80])
def test_eval_closed_noise_where_the_count_is_zero(digits):
    """Where c(n) = 0 the pole sum is rounding noise: ap:2:14 has only
    even parts, ge:15 none below 15.  It stays below 10^-(digits-10),
    and its error bound certifies an exact 0."""
    for spec, ns in (("ap:2:14", range(1, 401, 2)), ("ge:15", range(1, 15))):
        pf = partial_fractions(composition_gf(parse_setspec(spec)), digits)
        for n in ns:
            got = eval_closed(pf, n)
            assert abs(_value(got)) <= Fraction(1, 10 ** (digits - 10))
            assert got.exact == 0


def test_eval_closed_pinned_values():
    pf = partial_fractions(composition_gf(parse_setspec("not:mod:3:0")))
    assert round(_value(eval_closed(pf, 20))) == 101902
    assert eval_closed(pf, 20).exact == 101902
    with pytest.raises(ValueError):
        eval_closed(pf, -1)


def test_dominance_three_way_split():
    rep = dominance_report(partial_fractions(composition_gf(parse_setspec("not:mod:3:0"))))
    assert rep.classifications == ("inside", "outside", "outside")
    assert rep.unique_dominant and rep.nearest_integer_valid
    assert abs(rep.growth_rate - 1.8392867552) < 1e-9

    for spec in ("not:ap:1:3", "not:ap:2:3"):
        rep = dominance_report(partial_fractions(composition_gf(parse_setspec(spec))))
        assert rep.classifications == ("inside", "inside", "inside")
        assert rep.unique_dominant
        assert not rep.nearest_integer_valid


def test_dominance_tie_on_unit_circle():
    rep = dominance_report(partial_fractions(composition_gf(parse_setspec("set:2"))))
    assert rep.classifications == ("on", "on")
    assert not rep.unique_dominant
    assert not rep.nearest_integer_valid


# spec -> (inside, outside, on, unique dominant, rounding valid)
DISK_LABELS = {
    "not:mod:30:0": (1, 29, 0, True, True),
    "not:mod:60:0": (1, 59, 0, True, True),
    "set:1,30": (11, 19, 0, True, False),
    "set:2": (0, 0, 2, False, False),  # +-1
    "set:4": (0, 0, 4, False, False),  # +-1, +-i
}


@pytest.mark.parametrize("digits", [16, 20, 32, 50, 80])
@pytest.mark.parametrize("spec", sorted(DISK_LABELS))
def test_dominance_labels_from_disks_at_every_precision(spec, digits):
    rep = dominance_report(partial_fractions(composition_gf(parse_setspec(spec)), digits))
    labels = rep.classifications
    counts = tuple(labels.count(k) for k in ("inside", "outside", "on"))
    assert counts + (rep.unique_dominant, rep.nearest_integer_valid) == DISK_LABELS[spec]


def test_census_unique_dominant_pole_exactly_when_the_parts_have_gcd_one():
    # a census: among 100 random_partsets at each of three moduli, every
    # distinct reduced generating function with a pole has a unique
    # dominant one exactly when the gcd of its parts is 1 (a gcd g puts g
    # poles on the dominant circle); a repeated root is the one refusal
    # allowed
    census = {}
    for m in (6, 12, 24):
        rng = random.Random(f"census:{m}")
        for _ in range(100):
            A = random_partset(rng, m)
            gf = composition_gf(A)
            if gf.den.degree >= 1:
                census.setdefault((gf.num, gf.den), (gf, A))
    decided = 0
    for gf, A in census.values():
        # two periods past the last exception hold two members of each class
        g = math.gcd(*A.members_upto(max(A.added | A.removed, default=0) + 2 * A.modulus))
        try:
            report = dominance_report(partial_fractions(gf, 16))
        except ClosedFormError as exc:
            assert type(exc) is RepeatedRootError, (str(A), exc)
            continue
        assert report.unique_dominant == (g == 1), str(A)
        decided += 1
    assert len(census) == 276 and decided >= 250


def test_dominance_single_pole():
    rep = dominance_report(partial_fractions(composition_gf(parse_setspec("all"))))
    assert rep.classifications == ("inside",)
    assert rep.unique_dominant and rep.nearest_integer_valid
    assert abs(rep.growth_rate - 2) < 1e-40


def test_nearest_integer_rounding_holds_for_tribonacci_family():
    A = parse_setspec("not:mod:3:0")
    pf = partial_fractions(composition_gf(A))
    dom_pole, dom_res = pf.poles[0], pf.residue_coeffs[0]
    with mp.workdps(60):
        for n in range(1, 41):
            term = (_mpc(dom_res) * _mpc(dom_pole.point) ** (-n)).real
            exact = count(A, n)
            assert int(mp.nint(term)) == exact
            if n >= 4:
                assert abs(term - exact) / exact < 0.01


int_polys = st.lists(st.integers(-8, 8), min_size=2, max_size=7).filter(
    lambda cs: cs[0] != 0 and cs[-1] != 0
)


@given(int_polys)
@settings(max_examples=25, deadline=None)
def test_root_multiset_satisfies_vieta(cs):
    p = poly(cs)
    try:
        roots = find_roots(p, digits=30)
    except RepeatedRootError:
        assume(False)
    d = p.degree
    vals = [_mpc(r.point) for r in roots]
    s = sum(vals)
    prod = 1
    for v in vals:
        prod *= v
    lead = p.coeffs[-1]
    below = p.coeffs[-2]
    assert abs(s - (-below / lead)) < 1e-12
    sign = 1 if d % 2 == 0 else -1
    assert abs(prod - sign * p.coeffs[0] / lead) < 1e-12


@given(int_polys)
@settings(max_examples=25, deadline=None)
def test_roots_closed_under_conjugation(cs):
    p = poly(cs)
    try:
        roots = find_roots(p, digits=30)
    except RepeatedRootError:
        assume(False)
    vals = [_mpc(r.point) for r in roots]
    for v in vals:
        if abs(v.imag) > 1e-20:
            assert any(abs(w - v.conjugate()) < 1e-15 for w in vals)


def test_working_precision_is_the_digits_plus_guard_in_bits():
    # every Newton point depends on the precision: it must stay what
    # mpmath's workdps(digits + GUARD_DIGITS) sets
    for digits in range(16, closedform.MAX_DIGITS + 1):
        with mp.workdps(digits + GUARD_DIGITS):
            assert closedform._prec(digits) == mp.mp.prec


def _nstr(man, exp, digits):
    return mp.nstr(mp.mp.make_mpf(from_man_exp(man, exp)), digits)


def _near(value, bits=300):
    """Mantissa and exponent of the dyadics just around `value`: its
    nearest at `bits` bits and one unit either side."""
    value = Fraction(value)
    k = bits - 1 - math.floor(math.log2(value))
    m = round(value * 2**k)
    return [(m + d, -k) for d in (-1, 0, 1)]


# decimal exponents at the edges of fixed notation, -5 and -4, 4 and 5 at
# 5 digits, 11 and 12 at 12; carries through the last digit; signs
BOUNDARY_CASES = [
    case
    for value in [
        Fraction(1, 10**5), Fraction(1, 10**4), Fraction(99999, 10**9), 10**4, 10**5, 99999.5,
        10**11, 10**12, 999999999999.5, Fraction(9999999999995, 10**12),
        Fraction(99999999999995, 10**13), Fraction(12345678901235, 10**13),
        Fraction(999995, 10**5), Fraction(5, 10**6), Fraction(1, 3), 1, 2, Fraction(1, 2),
    ]
    for case in _near(value)
] + [(0, 0), (0, -40), (1, 0), (-1, 0), (-3, -1), (1, 60), (-(2**300) + 1, -400), (2**300 - 1, 60)]


@pytest.mark.parametrize("digits", [5, 12])
@pytest.mark.parametrize("man,exp", BOUNDARY_CASES)
def test_dyadic_str_matches_nstr_at_the_boundaries(man, exp, digits):
    for sign in (1, -1):
        assert closedform.dyadic_str(sign * man, exp, digits) == _nstr(sign * man, exp, digits)


@given(st.integers(-(2**300), 2**300), st.integers(-400, 60), st.sampled_from((5, 12)))
@settings(max_examples=500, deadline=None)
def test_dyadic_str_matches_nstr(man, exp, digits):
    assert closedform.dyadic_str(man, exp, digits) == _nstr(man, exp, digits)


@pytest.mark.parametrize("man,exp", [(1, 5000), (3, -4000), (2**300 - 1, 3300), (12345, -3600)])
def test_dyadic_str_far_from_one(man, exp):
    # past 2^+-3500 the digits come from a decimal product; away from a
    # rounding boundary they are nstr's
    for digits in (5, 12):
        assert closedform.dyadic_str(man, exp, digits) == _nstr(man, exp, digits)


def _above_ties(rng, digits, count):
    """`count` dyadics ceil(t 2^F) / 2^F, F = 200..400, just above a tie t
    at digit digits + 1 that is not itself dyadic, with t from about
    10^-100 to 10^digits, as (man, exp, t)."""
    out = []
    while len(out) < count:
        m = rng.randrange(10 ** (digits - 1), 10**digits)
        t = Fraction(10 * m + 5, 10 ** (digits - rng.randint(-100, digits - 2)))
        if t.denominator & (t.denominator - 1):  # not a power of 2
            f = rng.randint(200, 400)
            out.append((-(-(t.numerator << f) // t.denominator), -f, t))
    return out


@pytest.mark.parametrize("digits", [5, 12])
def test_dyadic_str_matches_nstr_just_above_ties(digits):
    # exact half-up rounding would print t rounded up for all of these;
    # dyadic_str truncates first, as nstr does, and so rounds most of
    # them down, and the CLI's output relies on printing what nstr prints
    cases = _above_ties(random.Random(digits), digits, 2500)
    for man, exp, _ in cases:
        assert closedform.dyadic_str(man, exp, digits) == _nstr(man, exp, digits)
    down = sum(Fraction(closedform.dyadic_str(man, exp, digits)) < t for man, exp, t in cases)
    assert down > len(cases) // 2


@given(st.integers(0, 2**32), st.sampled_from((16, 20, 32, 50, 80)), st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_eval_closed_certifies_the_count(seed, digits, n):
    # the bound always holds, a certified integer is the count, and the
    # count certifies once its bits, n's and the degree's fit in the
    # working precision: the error is about c(n) n degree 2^-(prec + 16)
    A = random_partset(random.Random(seed), 12)
    gf = composition_gf(A)
    try:
        pf = partial_fractions(gf, digits)
    except RepeatedRootError:
        assume(False)
    got, want = eval_closed(pf, n), count(A, n)
    assert abs(_value(got) - want) <= Fraction(got.error) / Fraction(2) ** got.scale
    assert got.exact in (None, want)
    bits = want.bit_length() + n.bit_length() + gf.den.degree.bit_length()
    if bits <= closedform._prec(digits):
        assert got.exact == want


@pytest.mark.parametrize("spec", ["all", "not:mod:3:0", "set:2"])
def test_eval_closed_at_an_astronomical_n(spec):
    # n = 10^9 keeps about 2w bits, and the printed digits are mpmath's
    # value of the pole sum: 2^(n-1) for all, the dominant term for
    # not:mod:3:0 (the others decay), and 0 for set:2 at odd n, exactly
    n = 10**9 + 1
    gf = composition_gf(parse_setspec(spec))
    pf = partial_fractions(gf, 16)
    start = time.perf_counter()
    got = eval_closed(pf, n)
    assert time.perf_counter() - start < 2
    if spec == "set:2":
        assert got.exact == 0
        return
    assert got.exact is None and got.scale < 0 and got.value.bit_length() < 4 * 150
    with mp.workdps(40):
        if spec == "all":
            want = mp.mpf(2) ** (n - 1)
        else:
            xi = min(mp.polyroots(gf.den.coeffs[::-1]), key=abs).real
            want = -gf.num(xi) / (xi * gf.den.derivative()(xi)) * xi ** (-n)
        assert closedform.dyadic_str(got.value, -got.scale, 12) == mp.nstr(want, 12)
