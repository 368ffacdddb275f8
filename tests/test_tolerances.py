"""One table of tolerances and caps, and one check per kind of input.

Every tolerance and cap is named once, in the constants block at the top of
`grdm/limits.py`; the source guards below keep new literals and knobs from
creeping back.  The input checks compare as `not dev <= tol`, so a NaN or
infinite input raises a ValueError that names it instead of getting a verdict.
"""

import ast
import hashlib
import io
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

from grdm import algebra, closed, conditions as cond, fock, limits, quasifree as qf
from grdm.algebra import change_generators, expectation, make_element, unit

SRC = Path(__file__).resolve().parent.parent / "src" / "grdm"

# The tolerance parameters that stay.  report_from_form's is passed
# positionally by the benchmark's replays, and so is check_P/Q/G's, which
# closed_form_report carries; validate_density's (with the Hermitian check
# that receives it) is pinned tighter than its default by a test;
# elements_close compares at a caller's scale, and prune runs at two.
KEPT_KNOBS = {
    ("algebra", "elements_close", "tol"),
    ("algebra", "prune", "rel_tol"),
    ("conditions", "check_G", "tol"),
    ("conditions", "check_P", "tol"),
    ("conditions", "check_Q", "tol"),
    ("conditions", "closed_form_report", "tol"),
    ("conditions", "report_from_form", "tol"),
    ("fock", "validate_density", "tol"),
    ("limits", "_require_hermitian", "tol"),
}


def _sources():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _constants_block_end(text: str) -> int:
    """The first line of limits.py's first class or function, where its constants block ends."""
    return min(node.lineno for node in ast.parse(text).body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef)))


def test_e_notation_literals_only_in_the_constants_block():
    found = []
    for module, text in _sources().items():
        end = _constants_block_end(text) if module == "limits" else 0
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


def test_index_arrays_widen_past_the_caps(monkeypatch):
    # The cached index arrays take their dtype from the largest index at their
    # m, not from a cap: one byte up to the caps, and at cap + 1, with the cap
    # raised, the same values as an int64 build where one byte would wrap.
    assert algebra._index_dtype((1 << fock.FOCK_CAP) - 1) == np.uint8
    assert algebra._index_dtype(4 * qf.QUASIFREE_CAP ** 2 - 1) == np.uint8
    fock_m, qf_m = fock.FOCK_CAP + 1, qf.QUASIFREE_CAP + 1
    monkeypatch.setattr(fock, "FOCK_CAP", fock_m)
    monkeypatch.setattr(qf, "QUASIFREE_CAP", qf_m)
    # uncached builds, so nothing past the real caps stays in the caches; the
    # 5^9-entry element map is compared by digest to keep one build in memory
    element_map, word_map = fock._element_map.__wrapped__, qf._star_word_map.__wrapped__
    got_elements = [hashlib.sha256(a.tobytes()).digest() for a in element_map(fock_m)]
    got_tables = word_map(qf_m, 4)[1]
    assert all(pairs.dtype == np.uint16 and pairs.max() > 255 for _, _, pairs in got_tables)
    for module in (fock, qf):
        monkeypatch.setattr(module, "_index_dtype", lambda largest: np.dtype(np.int64))
    assert got_elements == [hashlib.sha256(a.tobytes()).digest() for a in element_map(fock_m)]
    for (first, k, got), (first_w, k_w, want) in zip(got_tables, word_map(qf_m, 4)[1], strict=True):
        assert (first, k) == (first_w, k_w) and want.dtype == np.int64
        assert np.array_equal(got, want)


def test_caps_and_tolerances_resolve_where_they_are_read():
    assert fock.FOCK_CAP is algebra.FOCK_CAP == 8
    assert qf.QUASIFREE_CAP is algebra.QUASIFREE_CAP == 8
    assert qf.BOUNDARY_TOL is algebra.BOUNDARY_TOL
    assert cond.PSD_REL_TOL is closed.PSD_REL_TOL is algebra.PSD_REL_TOL
    # every constant, check and map helper of limits is the same object through algebra
    shared = [name for name in vars(limits)
              if name.isupper() or (name.startswith("_") and not name.startswith("__"))]
    assert "HERMITIAN_INPUT_TOL" in shared and "_coo_apply" in shared
    for name in shared:
        assert getattr(algebra, name) is getattr(limits, name), name


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
    "check_T1": (lambda bad: cond.check_T1(GAMMA, GAMMA2, _with(np.zeros((2, 2, 2)), (0, 1, 0), bad)),
                 "T"),
    "check_T2_generalized": (lambda bad: cond.check_T2_generalized(
        GAMMA, GAMMA2, _with(np.zeros((2, 2, 2)), (1, 0, 1), bad), np.ones(2)), "T"),
    "check_T2_generalized_a": (lambda bad: cond.check_T2_generalized(
        GAMMA, GAMMA2, np.ones((2, 2, 2)), _with(np.zeros(2), 1, bad)), "a"),
}


# finiteness is checked before any arithmetic, so numpy never warns first
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)], ids=["nan", "inf", "-infj"])
@pytest.mark.parametrize("case", NON_FINITE_CASES)
def test_non_finite_input_raises_naming_it(case, bad):
    call, name = NON_FINITE_CASES[case]
    with pytest.raises(ValueError, match=rf"^{name} "):
        call(bad)
