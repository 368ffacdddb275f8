"""One table of tolerances and caps, and one check per kind of input.

Every tolerance and cap is named once, in the constants block at the top of
`grdm/limits.py`; the source guards below keep new literals and knobs from
creeping back, and keep each name a module imports in the module that
defines it, with no alias on the way.  The input checks compare as `not dev <= tol`, so a NaN or
infinite input raises a ValueError that names it instead of getting a verdict.
"""

import ast
import functools
import hashlib
import io
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

from grdm import closed, conditions as cond, fock, limits, quasifree as qf
from grdm.algebra import make_element, unit
from _reference import change_generators, check_T1, check_T2_generalized

SRC = Path(__file__).resolve().parent.parent / "src" / "grdm"

# The tolerance parameters that stay.  report_from_form's is passed
# positionally by the benchmark's replays, and so is check_P/Q/G's, which
# closed_form_report carries; prune runs at two.
KEPT_KNOBS = {
    ("kernel", "prune", "rel_tol"),
    ("conditions", "check_G", "tol"),
    ("conditions", "check_P", "tol"),
    ("conditions", "check_Q", "tol"),
    ("conditions", "closed_form_report", "tol"),
    ("conditions", "report_from_form", "tol"),
}


def _sources():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _top_level_names(tree: ast.Module) -> set[str]:
    """Every name a module's top-level statements define or assign."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


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


def _definitions(tree: ast.Module):
    """(name, node) of each module-level function and class, each class before its methods.

    A class's methods and properties follow it as "Class.method", all but
    the dunder methods, which the language calls.
    """
    for top in tree.body:
        if isinstance(top, (ast.ClassDef, ast.FunctionDef)):
            yield top.name, top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and not re.fullmatch(r"__\w+__", node.name):
                    yield f"{top.name}.{node.name}", node


@functools.cache
def _references() -> tuple:
    """(homes, calls): the names that src/grdm, scripts/ and grdmbench/ read.

    `homes[name]` holds (module, definition) for each read inside a
    `_definitions` entry of src/grdm, the innermost one, and None for a read
    anywhere else; `calls[name]` holds (positional count, keyword names)
    for each call of a callee so named, a starred call counting as every
    position.
    """
    homes, calls = {}, {}
    root = SRC.parent.parent
    for path in [*SRC.glob("*.py"), *root.glob("scripts/*.py"), *root.glob("grdmbench/*.py")]:
        tree = ast.parse(path.read_text())
        owner = {}
        if path.parent == SRC:
            for name, top in _definitions(tree):  # a method's nodes overwrite its class's
                owner.update(dict.fromkeys(map(id, ast.walk(top)), (path.stem, name)))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                homes.setdefault(name, set()).add(owner.get(id(node)))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(
                    (float("inf") if starred else len(node.args),
                     {kw.arg for kw in node.keywords}))
    return homes, calls


def _reached() -> tuple[set, set]:
    """(reached, defined): the `_definitions` of src/grdm, and those reached.

    A read of a definition's name, a method's by attribute, reaches it when
    it lies in module-level code, scripts/ or grdmbench/, or in another
    definition reached so far; the set grows to a fixpoint.
    """
    homes = _references()[0]
    defined = {(module, name) for module, text in _sources().items()
               for name, _ in _definitions(ast.parse(text))}
    reached, more = set(), {None}
    while more:
        reached |= more
        more = {d for d in defined - reached
                if (homes.get(d[1].rpartition(".")[2], set()) - {d}) & reached}
    return reached - {None}, defined


def test_every_function_is_read_outside_the_tests():
    # a function, class, method or property that only tests read is code the
    # program does not run
    reached, defined = _reached()
    assert defined - reached == set()


# Parameters with a default that no call in src/grdm, scripts/ or grdmbench/
# passes, each with the reason it stays.
KEPT_DEFAULTS = dict.fromkeys(
    (("conditions", name, "tol") for name in ("check_G", "check_P", "check_Q")),
    "the check-m5 replay passes None to it through a loop variable (ROADMAP item 1)")


def _defaulted_parameters(tree: ast.Module):
    """(callee name, function, parameter, position or None) of every parameter with a default.

    A method's position leaves out self, and `__init__` is called by its class's name.
    """
    methods = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        name = node.name
        if id(node) in methods:
            positional = positional[1:]
            name = methods[id(node)] if name == "__init__" else name
        for k, arg in enumerate(positional):
            if k >= len(positional) - len(args.defaults):
                yield name, node.name, arg.arg, k
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, node.name, arg.arg, None


def test_every_default_is_passed_outside_the_tests():
    # a parameter with a default that only tests set is a knob the program
    # does not need: some call in the package, the scripts or the benchmark,
    # whose callee has the function's name, passes it by keyword or position
    calls = _references()[1]
    unpassed = set()
    for module, text in _sources().items():
        for callee, function, param, position in _defaulted_parameters(ast.parse(text)):
            if not any(param in keywords or None in keywords
                       or (position is not None and position < n_args)
                       for n_args, keywords in calls.get(callee, ())):
                unpassed.add((module, function, param))
    assert unpassed == set(KEPT_DEFAULTS)


def test_index_arrays_widen_past_the_caps(monkeypatch):
    # The cached index arrays take their dtype from the largest index at their
    # m, not from a cap: one byte up to the caps, and at cap + 1, with the cap
    # raised, the same values as an int64 build where one byte would wrap.
    assert limits._index_dtype((1 << limits.FOCK_CAP) - 1) == np.uint8
    assert limits._index_dtype(4 * limits.QUASIFREE_CAP ** 2 - 1) == np.uint8
    fock_m, qf_m = limits.FOCK_CAP + 1, limits.QUASIFREE_CAP + 1
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


def test_tolerances_and_caps_are_assigned_only_in_limits():
    # each tolerance and cap has one name, limits.X, which every module imports
    knobs = ("_TOL", "_CAP")
    found = {module: {name for name in _top_level_names(ast.parse(text)) if name.endswith(knobs)}
             for module, text in _sources().items()}
    assert found.pop("limits") == {name for name in vars(limits) if name.endswith(knobs)}
    assert not any(found.values()), found


def test_readme_table_lists_every_tolerance_and_cap():
    # README's "Tolerances and caps" table names exactly what limits defines,
    # at the same values, so a knob that leaves limits leaves the table too
    readme = (SRC.parent.parent / "README.md").read_text()
    section = readme.split("\n## Tolerances and caps\n")[1].split("\n## ")[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", section, re.M))
    defined = {name: value for name, value in vars(limits).items() if name.endswith(("_TOL", "_CAP"))}
    assert set(rows) == set(defined)
    assert {name: float(value.replace(",", "")) for name, value in rows.items()} == defined


def test_grdm_imports_are_used_and_come_from_their_home():
    # a name one grdm module imports from another is used there, and the
    # module it comes from defines it: no module keeps an alias for another's name
    trees = {module: ast.parse(text) for module, text in _sources().items()}
    homes = {module: _top_level_names(tree) for module, tree in trees.items()}
    unused, aliased = [], []
    for module, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    where = f"{module}.py:{node.lineno}: {alias.name} from {node.module}"
                    if (alias.asname or alias.name) not in loaded:
                        unused.append(where)
                    if alias.name not in homes[node.module]:
                        aliased.append(where)
    assert not unused, unused
    assert not aliased, aliased


# The grdm modules each base module may import.  The element kernel and the
# condition table compile on `limits` alone, the closed-form realization on
# the table, and quasifree on the kernel, so `grdm check` and `grdm
# quasifree` compile no more than they run.  The star-product realization is
# pinned at module level only: its closed-form wrappers import `closed` and
# `fuzz_conditions` imports `fock` inside the function, so `grdm fuzz`
# compiles neither the closed-form derivation nor anything check alone runs.
# A command's body, `run` in the module it runs, may import besides the
# `--out` writer from `cli` and, when the command reads a file, `serialize`'s
# reader; fuzz reads none.
BASE_IMPORTS = {"closed": {"limits", "table"}, "conditions": {"kernel", "limits", "table"},
                "kernel": {"limits"}, "quasifree": {"kernel", "limits"}, "table": {"limits"}}


def test_base_modules_import_only_their_base():
    imported = {module: set() for module in BASE_IMPORTS}
    in_run = {module: set() for module in BASE_IMPORTS}
    for module, found in imported.items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        run = {id(node) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "run"
               for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                if id(node) in run:
                    in_run[module].update(names)
                elif module != "conditions" or node in tree.body:
                    found.update(names)
    assert imported == BASE_IMPORTS
    assert in_run == {"closed": {"cli", "serialize"}, "conditions": {"cli"}, "kernel": set(),
                      "quasifree": {"cli", "serialize"}, "table": set()}


def test_no_module_imports_dataclasses():
    # every record type is a NamedTuple, so no command compiles `dataclasses`
    # (with `copy`) or the generated methods of a dataclass at start-up
    found = []
    for module, text in _sources().items():
        for node in ast.walk(ast.parse(text)):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{module}.py:{node.lineno}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert not found, found


def _unit_trace_density(bad):
    # the unit term carries the whole trace, so bad makes it NaN or infinite
    return make_element(2, [((), (), 0.25 * bad)])


def _with(matrix, index, bad):
    out = np.array(matrix, dtype=complex)
    out[index] = bad
    return out


GAMMA = np.diag([0.2, 0.7])
GAMMA2 = fock.pdms_from_rho(fock.random_density(2, 3))[1]
NON_FINITE_CASES = {
    "first_order_report": (lambda bad: cond.first_order_report(_with(GAMMA, (0, 0), bad)),
                           "gamma"),
    "battery": (lambda bad: closed.battery(GAMMA, _with(GAMMA2, (1, 2), bad)), "Gamma"),
    "build_quasifree": (lambda bad: qf.build_quasifree(_with(GAMMA, (0, 1), bad)), "gamma"),
    "wick_pdms": (lambda bad: qf.wick_pdms(_with(GAMMA, (1, 1), bad)), "gamma"),
    "change_generators": (lambda bad: change_generators(unit(2), _with(np.eye(2), (1, 0), bad)),
                          "u"),
    "pdm1_from_density": (lambda bad: cond.pdm1_from_density(_unit_trace_density(bad)),
                          "density"),
    "check_T1": (lambda bad: check_T1(GAMMA, GAMMA2, _with(np.zeros((2, 2, 2)), (0, 1, 0), bad)),
                 "T"),
    "check_T2_generalized": (lambda bad: check_T2_generalized(
        GAMMA, GAMMA2, _with(np.zeros((2, 2, 2)), (1, 0, 1), bad), np.ones(2)), "T"),
    "check_T2_generalized_a": (lambda bad: check_T2_generalized(
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
