"""One table of tolerances and caps, and one check per kind of input.

Every tolerance and cap is named once, in the constants block at the top of
`grdm/algebra.py`; the source guards below keep new literals and knobs from
creeping back.  The input checks compare as `not dev <= tol`, so a NaN or
infinite input raises a ValueError that names it instead of getting a verdict.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

from grdm import algebra, conditions as cond, fock, quasifree as qf
from grdm.algebra import change_generators, expectation, make_element, unit

SRC = Path(__file__).resolve().parent.parent / "src" / "grdm"

# The tolerance parameters that stay.  report_from_form's is passed
# positionally by the benchmark's replays, and so is check_P/Q/G's, which
# closed_form_report carries; validate_density's (with the Hermitian check
# that receives it) is pinned tighter than its default by a test;
# elements_close compares at a caller's scale, and prune runs at two.
KEPT_KNOBS = {
    ("algebra", "_require_hermitian", "tol"),
    ("algebra", "elements_close", "tol"),
    ("algebra", "prune", "rel_tol"),
    ("conditions", "check_G", "tol"),
    ("conditions", "check_P", "tol"),
    ("conditions", "check_Q", "tol"),
    ("conditions", "closed_form_report", "tol"),
    ("conditions", "report_from_form", "tol"),
    ("fock", "validate_density", "tol"),
}


def _sources():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _constants_block_end(text: str) -> int:
    """The first line of algebra.py's first class or function, where its constants block ends."""
    return min(node.lineno for node in ast.parse(text).body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef)))


def test_e_notation_literals_only_in_the_constants_block():
    found = []
    for module, text in _sources().items():
        end = _constants_block_end(text) if module == "algebra" else 0
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if (tok.type == tokenize.NUMBER and re.search(r"[eE]-", tok.string)
                    and tok.start[0] >= end):
                found.append(f"{module}.py:{tok.start[0]}: {tok.string}")
    assert not found, found


def test_tolerance_parameters_are_the_kept_ones():
    found = set()
    for module, text in _sources().items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if re.search(r"(^|_)tol$", arg.arg):
                        found.add((module, node.name, arg.arg))
    assert found == KEPT_KNOBS


def test_caps_and_tolerances_resolve_where_they_are_read():
    assert fock.FOCK_CAP is algebra.FOCK_CAP == 8
    assert qf.QUASIFREE_CAP is algebra.QUASIFREE_CAP == 8
    assert qf.BOUNDARY_TOL is algebra.BOUNDARY_TOL
    assert cond.PSD_REL_TOL is algebra.PSD_REL_TOL


def _unit_trace_density(bad):
    # the unit term carries the whole trace, so bad makes it NaN or infinite
    return make_element(2, [((), (), 0.25 * bad)])


def _with(matrix, index, bad):
    out = np.array(matrix, dtype=complex)
    out[index] = bad
    return out


GAMMA = np.diag([0.2, 0.7])
GAMMA2 = fock.pdms_from_rho(fock.random_density(2, 3))[1]
SECTOR_RHO = fock.random_density(3, 4, sector=2)
NON_FINITE_CASES = {
    "first_order_report": (lambda bad: cond.first_order_report(_with(GAMMA, (0, 0), bad)),
                           "gamma"),
    "condition_battery": (lambda bad: cond.condition_battery(GAMMA, _with(GAMMA2, (1, 2), bad)),
                          "Gamma"),
    "build_quasifree": (lambda bad: qf.build_quasifree(_with(GAMMA, (0, 1), bad)), "gamma"),
    "wick_pdms": (lambda bad: qf.wick_pdms(_with(GAMMA, (1, 1), bad)), "gamma"),
    "change_generators": (lambda bad: change_generators(unit(2), _with(np.eye(2), (1, 0), bad)),
                          "u"),
    "contraction_check": (lambda bad: fock.contraction_check(SECTOR_RHO,
                                                             onb=_with(np.eye(3), (2, 2), bad)),
                          "onb"),
    "contraction_check_rho": (lambda bad: fock.contraction_check(_with(SECTOR_RHO, (3, 3), bad)),
                              "density"),
    "expectation": (lambda bad: expectation(_unit_trace_density(bad), unit(2)), "density"),
    "pdm1_from_density": (lambda bad: cond.pdm1_from_density(_unit_trace_density(bad)),
                          "density"),
}


# finiteness is checked before any arithmetic, so numpy never warns first
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)], ids=["nan", "inf", "-infj"])
@pytest.mark.parametrize("case", NON_FINITE_CASES)
def test_non_finite_input_raises_naming_it(case, bad):
    call, name = NON_FINITE_CASES[case]
    with pytest.raises(ValueError, match=rf"^{name} "):
        call(bad)
