"""Exact enumeration of integer compositions with restricted parts.

Part sets are eventually periodic subsets of the positive integers
(residue classes modulo k with finitely many exceptions).  For any such
set the package derives the rational generating function of the
composition counts exactly, reads exact counts and fast modular terms
off it, saves it as a JSON linear recurrence, expands it into a numeric
closed form over the denominator poles, and cross-checks everything
against brute-force enumeration and direct dynamic programming.
"""

from importlib import import_module

from .genfun import composition_gf, composition_series, count
from .partset import PartSet, SetSpecError, parse_setspec
from .polyring import IntPolynomial, RationalGF

__version__ = "0.1.0"

# bivariate, recurrence, closedform and oracle are imported on first use
# (PEP 562), so that `import compenum.cli` loads only the parser, genfun,
# partset and polyring, and each command imports the rest it runs; the
# package itself needs nothing outside the standard library
_LAZY_MODULES = {
    "bivariate": "BivariateTable bivariate_table length_row odd_parts_by_length",
    "recurrence": (
        "LinearRecurrence avoid_residue_recurrence avoid_residue_seed_formula "
        "no_multiples_recurrence recurrence_from_gf"
    ),
    "closedform": (
        "ClosedFormError ComplexRoot ConvergenceError DominanceReport EvalResult "
        "PartialFraction RepeatedRootError dominance_report eval_closed find_roots "
        "partial_fractions"
    ),
    "oracle": (
        "DEFAULT_ENUM_LIMIT Check CheckRow VerificationReport compositions "
        "dp_count dp_count_series dp_length_table expected_discrepancy family_reports "
        "length_slice_series random_partset row_check_against_slices run_verification_suite "
        "suite_passed verify_cayley_shift verify_sills_zeilberger verify_theorem verify_triangle"
    ),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names.split()}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "IntPolynomial",
    "PartSet",
    "RationalGF",
    "SetSpecError",
    "composition_gf",
    "composition_series",
    "count",
    "parse_setspec",
    *_LAZY,
]
