"""CLI exit-code contract, JSON schemas, and report round trips."""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grdm
from grdm import cli, closed, conditions, fock, kernel, quasifree, selftest, serialize, table
from grdm.algebra import make_element
from grdm.kernel import GrassmannElement
from grdm.limits import ELEMENT_CAP
from _reference import element_from_dict
from conftest import rand_element, random_unitary

_SPECIAL_FLOATS = [-0.0, 0.0, 1e-300, -1e300, 5e-324, float("nan"), float("inf"), float("-inf")]
_SPECIAL_TEXT = ["", "\"\\/\b\f\n\r\t", "\x00\x1f\x7f", "caf\u00e9 \u2028 \U0001f600", "\ud800"]
_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=-2**80, max_value=2**80),
    st.floats(), st.sampled_from(_SPECIAL_FLOATS), st.text(), st.sampled_from(_SPECIAL_TEXT))
_json_keys = st.one_of(st.text(), st.sampled_from(_SPECIAL_TEXT), st.integers(), st.floats(),
                       st.sampled_from(_SPECIAL_FLOATS), st.booleans(), st.none())
json_trees = st.recursive(_json_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=5), st.lists(kids, max_size=5).map(tuple),
    st.dictionaries(_json_keys, kids, max_size=5)), max_leaves=40)


@st.composite
def _small_elements(draw):
    """A GrassmannElement on at most 3 modes with up to 6 terms, any complex coefficients."""
    m = draw(st.integers(1, 3))
    vec = np.zeros(1 << (2 * m), dtype=complex)
    picks = draw(st.lists(st.integers(0, vec.size - 1), max_size=6, unique=True))
    vec[picks] = draw(st.lists(st.complex_numbers(), min_size=len(picks), max_size=len(picks)))
    return GrassmannElement.from_vector(m, vec)


def _write_pdms(path, m, seed):
    gamma, Gamma = fock.pdms_from_rho(fock.random_density(m, seed))
    serialize.atomic_write_json(str(path), {
        "gamma": serialize.matrix_to_dict(gamma, "gamma", m),
        "Gamma": serialize.matrix_to_dict(Gamma, "Gamma", m),
    })
    return path, gamma, Gamma


@pytest.fixture
def pdm_file(tmp_path):
    return _write_pdms(tmp_path / "pdms.json", 3, 5)


def _quick_argvs(pair) -> list:
    """A quick check, fuzz and quasifree argv, each without --out; `pair` is a check input."""
    return [["check", "--in", str(pair)], ["fuzz", "--m", "2", "--trials", "1"],
            ["quasifree", "--in", str(pair)]]


def _strict_json(text: str):
    """RFC 8259 JSON: NaN, Infinity and -Infinity are rejected, as jq and JavaScript reject them."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestSerialize:
    def test_element_roundtrip_bit_exact(self, rng):
        for _ in range(10):
            a = rand_element(rng, 3)
            blob = json.dumps(serialize.element_to_dict(a))
            back = element_from_dict(json.loads(blob))
            assert back.m == a.m
            assert back.terms == a.terms  # bit-exact for binary64

    def test_element_json_equals_sorted_terms_walk(self, rng):
        # element_to_dict reads the sorted arrays; the JSON is the one the
        # walk over sorted(terms) wrote, byte for byte
        kappa = fock.from_operator(fock.random_density(3, 5))
        for a in (kappa, rand_element(rng, 3, nterms=12), make_element(2, [])):
            want = {"m": a.m, "terms": [
                {"bar": list(kernel._indices(k.bar)), "unbar": list(kernel._indices(k.unbar)),
                 "re": a.terms[k].real, "im": a.terms[k].imag} for k in sorted(a.terms)]}
            got = serialize.element_to_dict(a)
            assert json.dumps(got, indent=2) == json.dumps(want, indent=2)
        assert len(kappa.terms) == 64

    def test_element_schema_shape(self):
        a = make_element(2, [((1, 2), (1,), 0.5 - 2j)])
        d = serialize.element_to_dict(a)
        assert d == {"m": 2, "terms": [{"bar": [1, 2], "unbar": [1], "re": 0.5, "im": -2.0}]}

    def test_matrix_roundtrip(self, rng):
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        d = serialize.matrix_to_dict(mat, "gamma", 3)
        back, kind, m = serialize.matrix_from_dict(d)
        assert kind == "gamma" and m == 3
        assert np.array_equal(back, mat)

    def test_operator_and_density_kinds(self):
        # no command reads a Fock matrix, so only gamma and Gamma are kinds
        for kind in ("density", "operator"):
            d = serialize.matrix_to_dict(np.eye(4) / 4, kind, 2)
            with pytest.raises(serialize.FormatError, match=f"unknown value '{kind}'"):
                serialize.matrix_from_dict(d)

    def test_matrix_errors_name_fields(self):
        with pytest.raises(serialize.FormatError, match="'kind'"):
            serialize.matrix_from_dict({"m": 2, "dim": 2, "re": [], "im": []})
        with pytest.raises(serialize.FormatError, match="'dim'"):
            serialize.matrix_from_dict({"kind": "gamma", "m": 2, "dim": 3,
                                        "re": [[0] * 3] * 3, "im": [[0] * 3] * 3})
        with pytest.raises(serialize.FormatError, match="'re'"):
            serialize.matrix_from_dict({"kind": "gamma", "m": 1, "dim": 1,
                                        "re": [["x"]], "im": [[0.0]]})
        # JSON booleans are no numbers, and m counts modes from 1
        for m in (True, 0, -1):
            with pytest.raises(serialize.FormatError, match="'m'"):
                serialize.matrix_from_dict({"kind": "gamma", "m": m, "dim": 1,
                                            "re": [[0.5]], "im": [[0.0]]})
            with pytest.raises(serialize.FormatError, match="'m'"):
                element_from_dict({"m": m, "terms": []})
        with pytest.raises(serialize.FormatError, match="'dim'"):
            serialize.matrix_from_dict({"kind": "gamma", "m": 1, "dim": True,
                                        "re": [[0.5]], "im": [[0.0]]})
        with pytest.raises(serialize.FormatError, match="'re'"):
            element_from_dict({"m": 1, "terms": [
                {"bar": [], "unbar": [], "re": False, "im": 0.0}]})

    def test_element_errors_non_object_term_and_past_cap(self):
        with pytest.raises(serialize.FormatError,
                           match=r"^field 'terms\[1\]' in element is not an object$"):
            element_from_dict({"m": 2, "terms": [
                {"bar": [1], "unbar": [], "re": 1.0, "im": 0.0}, [1]]})
        with pytest.raises(serialize.FormatError,
                           match=rf"^element terms invalid: .*exceeds cap {ELEMENT_CAP}$"):
            element_from_dict({"m": ELEMENT_CAP + 1, "terms": []})

    def test_ragged_matrix_rows_name_field(self):
        with pytest.raises(serialize.FormatError, match="^field 're' is not a numeric matrix"):
            serialize.matrix_from_dict({"kind": "gamma", "m": 2, "dim": 2,
                                        "re": [[0.5, 0.0], [0.0]], "im": [[0, 0], [0, 0]]})

    @pytest.mark.parametrize("field, term", [
        ("bar", {"bar": [2, 1]}),       # pbar_2 pbar_1 = -pbar_1 pbar_2: order carries a sign
        ("bar", {"bar": [1, 1]}),       # pbar_1 pbar_1 = 0
        ("bar", {"bar": [True]}),
        ("bar", {"bar": [1.0]}),
        ("bar", {"bar": ["1"]}),
        ("bar", {"bar": [None]}),
        ("bar", {"bar": [0]}),
        ("bar", {"bar": [1, 3]}),       # m = 2
        ("unbar", {"unbar": [2, 1]}),
        ("unbar", {"unbar": [2, 2]}),
        ("unbar", {"unbar": [False]}),
        ("unbar", {"unbar": [-1]}),
        ("re", {"re": float("nan")}),
        ("re", {"re": float("inf")}),
        ("im", {"im": float("-inf")}),
        ("im", {"im": float("nan")}),
        ("im", {"im": -10**400}),       # an int no binary64 holds
    ])
    def test_element_bad_term_names_field(self, field, term):
        good = {"bar": [1], "unbar": [1, 2], "re": 0.5, "im": -0.25}
        d = {"m": 2, "terms": [good, {**good, **term}]}
        with pytest.raises(serialize.FormatError, match=rf"'terms\[1\]\.{field}'"):
            element_from_dict(d)

    @pytest.mark.parametrize("field, entry, message", [
        ("re", "0.3", "non-numeric"),       # a numeric string
        ("re", True, "non-numeric"),        # a JSON boolean is no number
        ("im", False, "non-numeric"),
        ("re", None, "non-numeric"),        # null
        ("im", [0.5], "non-numeric"),       # a nested array
        ("re", 10**400, "non-finite"),      # an int no binary64 holds
        ("im", -10**400, "non-finite"),
        ("re", float("nan"), "non-finite"),
        ("im", float("-inf"), "non-finite"),
    ])
    def test_matrix_bad_entry_names_field(self, field, entry, message):
        d = serialize.matrix_to_dict(np.diag([0.3, 0.7]), "gamma", 2)
        d[field][1][0] = entry
        with pytest.raises(serialize.FormatError, match=rf"^field '{field}' .*{message}"):
            serialize.matrix_from_dict(d, "gamma")

    def test_matrix_reads_ints_as_floats(self):
        d = {"kind": "gamma", "m": 2, "dim": 2, "re": [[1, 0], [0, 10**300]],
             "im": [[0, 0.5], [-0.5, 0]]}
        mat, _, _ = serialize.matrix_from_dict(d)
        assert np.array_equal(mat, [[1, 0.5j], [-0.5j, 1e300]])

    # `grdm quasifree`'s writer (`quasifree._dumps`) renders its element
    # straight from the arrays; its bytes are json's for the dict form
    @settings(max_examples=300, deadline=None)
    @given(_small_elements(), json_trees)
    def test_dumps_equals_json_indent_2(self, a, report):
        # any JSON tree as the report beside the element
        want = json.dumps({"element": serialize.element_to_dict(a), "report": report}, indent=2)
        assert quasifree._dumps({"element": a, "report": report}) == want

    def test_dumps_rejects_what_json_rejects(self):
        # the report goes through json, so the writer raises where json does
        a = make_element(2, [((1,), (2,), 0.5 - 2j)])
        for bad in (np.int64(3), np.bool_(True), {1, 2}, b"x", 1j, GrassmannElement, a):
            with pytest.raises(TypeError, match="not JSON serializable"):
                quasifree._dumps({"element": a, "report": {"a": [bad]}})
            with pytest.raises(TypeError):
                json.dumps({"a": [bad]}, indent=2)
        with pytest.raises(TypeError, match="keys must be"):
            quasifree._dumps({"element": a, "report": {(1, 2): 0}})
        # numpy float64 is a float subclass, written as float.__repr__ writes it
        tree = {"x": np.float64(0.1), np.float64(2.5): [np.float64("nan")]}
        want = json.dumps({"element": serialize.element_to_dict(a), "report": tree}, indent=2)
        assert quasifree._dumps({"element": a, "report": tree}) == want

    @pytest.mark.parametrize("m", range(1, 9))
    def test_dumps_element_leaf_at_depths(self, rng, m):
        vec = np.zeros(1 << (2 * m), dtype=complex)
        picks = rng.choice(vec.size, size=min(vec.size, 40), replace=False)
        vec[picks] = rng.standard_normal(picks.size) + 1j * rng.standard_normal(picks.size)
        specials = [complex(-0.0, 1.0), complex(np.nan, -0.0), complex(np.inf, 2.0),
                    complex(-np.inf, np.nan)]
        vec[picks[:4]] = specials[:picks.size]
        vec[0] = 0.5  # the empty monomial, written with "bar": [] and "unbar": []
        report = {"dev": 1e-300, "rows": [[], [0.1, 2], {}], "name": "a\nb", "nan": np.nan}
        for a in (GrassmannElement.from_vector(m, vec),
                  GrassmannElement.from_vector(m, np.zeros_like(vec))):
            d = serialize.element_to_dict(a)
            got = quasifree._dumps({"element": a, "report": report})
            assert got == json.dumps({"element": d, "report": report}, indent=2)

    def test_atomic_write_no_partial(self, tmp_path):
        path = tmp_path / "out.json"
        serialize.atomic_write_json(str(path), {"x": 1})
        assert json.loads(path.read_text()) == {"x": 1}
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers

    def test_atomic_write_mode_follows_umask(self, pdm_file, tmp_path):
        # every command's --out gets open()'s mode 0666 & ~umask, not a private 0600
        for k, argv in enumerate(_quick_argvs(pdm_file[0])):
            out = tmp_path / f"out{k}.json"
            old = os.umask(0o022)
            try:
                assert cli.main(argv + ["--out", str(out)]) == 0, argv[0]
            finally:
                os.umask(old)
            assert os.stat(out).st_mode & 0o777 == 0o644, argv[0]

    def test_failed_atomic_write_removes_temp_file(self, pdm_file, tmp_path, capsys):
        # a failure while writing and one at the rename onto a directory, the
        # latter also as every command's --out, which exits 2
        folder = tmp_path / "out"
        (folder / "dir.json").mkdir(parents=True)
        for name, obj in (("out.json", {"x": object()}), ("dir.json", {"x": 1})):
            with pytest.raises((TypeError, OSError)):
                serialize.atomic_write_json(str(folder / name), obj)
        for argv in _quick_argvs(pdm_file[0]):
            assert cli.main(argv + ["--out", str(folder / "dir.json")]) == 2, argv[0]
            assert capsys.readouterr() == ("", f"error: cannot write --out {folder / 'dir.json'}: "
                                               "Is a directory\n")
        assert sorted(p.name for p in folder.iterdir()) == ["dir.json"]
        assert not any((folder / "dir.json").iterdir())

    def test_atomic_write_bytes(self, tmp_path, rng):
        path = tmp_path / "out.json"
        obj = {"element": serialize.element_to_dict(rand_element(rng, 3)),
               "report": {"dev": 1e-300, "zero": -0.0, "pass": True, "seed": None, "name": "G"},
               "rows": [[], [0.1, 2], {}]}
        serialize.atomic_write_json(str(path), obj)
        assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode()


class TestCheck:
    def test_genuine_passes(self, pdm_file, tmp_path):
        # at m = 2 T1 has no probes: its margin, +inf, is written as null
        small = _write_pdms(tmp_path / "m2.json", 2, 5)
        for path, m in ((pdm_file[0], 3), (small[0], 2)):
            out = tmp_path / "report.json"
            rc = cli.main(["check", "--in", str(path), "--out", str(out)])
            assert rc == 0
            reports = _strict_json(out.read_text())
            names = [r["condition"] for r in reports]
            assert names == ["first-order", "P", "Q", "G", "T1", "T2"]
            assert all(r["pass"] for r in reports)
            empty = [r["condition"] for r in reports if r["margin"] is None]
            assert empty == (["T1"] if m == 2 else [])
            assert all(r["margin"] >= -r["tol"] for r in reports if r["margin"] is not None)

    def test_corrupted_gamma2_fails(self, pdm_file, tmp_path):
        path, gamma, Gamma = pdm_file
        bad = tmp_path / "bad.json"
        serialize.atomic_write_json(str(bad), {
            "gamma": serialize.matrix_to_dict(gamma, "gamma", 3),
            "Gamma": serialize.matrix_to_dict(Gamma - 0.1 * np.eye(9), "Gamma", 3),
        })
        rc = cli.main(["check", "--in", str(bad)])
        assert rc == 1

    @pytest.mark.parametrize("dev, rc", [(1e-9, 0), (1e-7, 2)])
    def test_slightly_non_hermitian_gamma2(self, pdm_file, tmp_path, capsys, dev, rc):
        # inside the 1e-8 input check every closed form is Hermitised and passes;
        # outside it the check exits 2 and names Gamma
        path, gamma, Gamma = pdm_file
        Gamma = Gamma.copy()
        Gamma[0, 1] += dev
        skew = tmp_path / "skew.json"
        serialize.atomic_write_json(str(skew), {
            "gamma": serialize.matrix_to_dict(gamma, "gamma", 3),
            "Gamma": serialize.matrix_to_dict(Gamma, "Gamma", 3),
        })
        out = tmp_path / "rep.json"
        assert cli.main(["check", "--in", str(skew), "--out", str(out)]) == rc
        if rc == 0:
            reports = json.loads(out.read_text())
            assert [r["condition"] for r in reports] == ["first-order", "P", "Q", "G", "T1", "T2"]
            assert all(r["pass"] for r in reports)
        else:
            assert not out.exists()
            assert "Gamma is not Hermitian" in capsys.readouterr().err

    def test_gamma_only_first_order(self, pdm_file, tmp_path, capsys):
        _, gamma, _ = pdm_file
        gonly = tmp_path / "gamma.json"
        serialize.atomic_write_json(str(gonly), serialize.matrix_to_dict(gamma, "gamma", 3))
        out = tmp_path / "rep.json"
        rc = cli.main(["check", "--in", str(gonly), "--out", str(out)])
        assert rc == 0
        reports = json.loads(out.read_text())
        assert [r["condition"] for r in reports] == ["first-order"]

    def test_malformed_input_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "mal.json"
        bad.write_text('{"gamma": {"kind": "gamma", "m": 3, "dim": 3, "re": [[1]]}}')
        rc = cli.main(["check", "--in", str(bad)])
        assert rc == 2
        assert "'im'" in capsys.readouterr().err

    def test_non_finite_gamma_exit_2(self, pdm_file, tmp_path, capsys):
        _, gamma, Gamma = pdm_file
        gamma = gamma.copy()
        gamma[0, 0] = np.nan
        bad = tmp_path / "nan.json"
        serialize.atomic_write_json(str(bad), {
            "gamma": serialize.matrix_to_dict(gamma, "gamma", 3),
            "Gamma": serialize.matrix_to_dict(Gamma, "Gamma", 3),
        })
        rc = cli.main(["check", "--in", str(bad)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert "'re'" in err and "non-finite" in err
        assert "PASS" not in out and "FAIL" not in out

    def test_missing_file_exit_2(self, tmp_path):
        rc = cli.main(["check", "--in", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_tol_override(self, pdm_file, tmp_path):
        path, gamma, Gamma = pdm_file
        out = tmp_path / "r.json"
        rc = cli.main(["check", "--in", str(path), "--out", str(out), "--tol", "1e-3"])
        assert rc == 0
        assert all(r["tol"] == 1e-3 for r in json.loads(out.read_text()))
        shifted = tmp_path / "shifted.json"
        serialize.atomic_write_json(str(shifted), {
            "gamma": serialize.matrix_to_dict(gamma, "gamma", 3),
            "Gamma": serialize.matrix_to_dict(Gamma - 0.05 * np.eye(9), "Gamma", 3),
        })
        assert cli.main(["check", "--in", str(shifted)]) == 1
        rc = cli.main(["check", "--in", str(shifted), "--out", str(out), "--tol", "0.1"])
        assert rc == 0
        assert all(r["tol"] == 0.1 for r in json.loads(out.read_text()))

    def test_unwritable_out_exit_2(self, pdm_file, tmp_path, capsys):
        # exit 1 means a condition failed; an --out that cannot be written is an input error
        out = tmp_path / "missing" / "r.json"
        assert cli.main(["check", "--in", str(pdm_file[0]), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: cannot write --out {out}: "
                                           "No such file or directory\n")

    def test_output_bytes_are_json_indent_2(self, pdm_file, tmp_path):
        path, gamma, Gamma = pdm_file
        out = tmp_path / "report.json"
        assert cli.main(["check", "--in", str(path), "--out", str(out)]) == 0
        reports = [r.as_dict() for r in closed.battery(gamma, Gamma)]
        assert out.read_bytes() == (json.dumps(reports, indent=2) + "\n").encode()

    def test_boolean_m_exit_2(self, pdm_file, tmp_path, capsys):
        data = json.loads(pdm_file[0].read_text())
        for part in ("gamma", "Gamma"):
            data[part]["m"] = True
        path = tmp_path / "bool_m.json"
        path.write_text(json.dumps(data))
        rc = cli.main(["check", "--in", str(path)])
        stdout, err = capsys.readouterr()
        assert rc == 2
        assert "'m'" in err
        assert "PASS" not in stdout and "FAIL" not in stdout

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exit_2(self, pdm_file, tmp_path, capsys, tol):
        out = tmp_path / "r.json"
        rc = cli.main(["check", "--in", str(pdm_file[0]), "--out", str(out), "--tol", tol,
                       "--verbose"])
        stdout, err = capsys.readouterr()
        assert rc == 2
        assert "--tol" in err
        assert "PASS" not in stdout and "FAIL" not in stdout
        assert not out.exists()


class TestFuzz:
    def test_small_campaign_passes(self, tmp_path):
        out = tmp_path / "fuzz.json"
        rc = cli.main(["fuzz", "--m", "2", "--trials", "5", "--seed", "7",
                       "--out", str(out)])
        assert rc == 0
        summary = _strict_json(out.read_text())
        assert summary["all_pass"] and summary["trials"] == 5
        assert summary["pdm_max_dev"] < 1e-10
        # T1 has no probes at m = 2: its worst margin, +inf, is written as null
        assert summary["worst_margins"]["T1"] is None

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["fuzz", "--m", "2", "--trials", "4", "--seed", "3", "--out", str(a)])
        cli.main(["fuzz", "--m", "2", "--trials", "4", "--seed", "3", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_failures_counted_exit_1(self, monkeypatch, capsys):
        # with a pass tolerance of -1 every margin below 1 fails: all six
        # conditions on both trials
        monkeypatch.setattr(table, "PSD_REL_TOL", -1.0)
        assert cli.main(["fuzz", "--m", "3", "--trials", "2", "--seed", "1"]) == 1
        out = capsys.readouterr().out
        assert out.endswith("\n  failures: 12\n"), out

    def test_cap_exceeded_exit_2(self, capsys):
        assert cli.main(["fuzz", "--m", "9", "--trials", "2"]) == 2
        assert "cap 8" in capsys.readouterr().err

    def test_zero_trials_exit_2(self, capsys):
        assert cli.main(["fuzz", "--m", "2", "--trials", "0"]) == 2
        assert "trials must be >= 1" in capsys.readouterr().err

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "fuzz.json"
        assert cli.main(["fuzz", "--m", "2", "--trials", "1", "--seed", "-5",
                         "--out", str(out)]) == 2
        assert "seed must be >= 0, got -5" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "fuzz.json"
        assert cli.main(["fuzz", "--m", "2", "--trials", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: cannot write --out {out}: "
                                           "No such file or directory\n")

    def test_output_bytes_are_json_indent_2(self, tmp_path):
        out = tmp_path / "fuzz.json"
        assert cli.main(["fuzz", "--m", "3", "--trials", "2", "--seed", "4", "--sector", "1",
                         "--out", str(out)]) == 0
        summary = conditions.fuzz_conditions(3, 2, 4, sector=1).as_dict()
        assert out.read_bytes() == (json.dumps(summary, indent=2) + "\n").encode()

    @pytest.mark.parametrize("m, sector", [(2, None), (3, 2)])
    def test_summary_lines_without_out(self, capsys, m, sector):
        # without --out the summary goes to stdout: the run, the deviations,
        # one worst margin per condition in battery order, the failure count
        argv = ["fuzz", "--m", str(m), "--trials", "2"]
        assert cli.main(argv + (["--sector", str(sector)] if sector else [])) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert err == ""
        assert lines[0] == f"fuzz m={m} trials=2 seed=0 sector={sector}"
        devs = ["pdm"] + (["contraction"] if sector else [])
        for line, name in zip(lines[1:], devs):
            dev = re.fullmatch(rf"  {name} max deviation: (\S+)", line)
            assert dev and float(dev[1]) < 1e-10, line
        worst = [re.fullmatch(r"  worst (\S+) +margin ([-+]\S+)", line)
                 for line in lines[1 + len(devs):-1]]
        assert [w[1] for w in worst] == ["first-order", "P", "Q", "G", "T1", "T2"]
        assert lines[-1] == "  failures: 0"

    def test_sector_campaign(self, tmp_path):
        out = tmp_path / "fz.json"
        rc = cli.main(["fuzz", "--m", "4", "--trials", "2", "--seed", "1",
                       "--sector", "2", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["contraction_max_dev"] < 1e-10


class TestQuasifreeCmd:
    def test_roundtrip_report(self, tmp_path):
        gpath = tmp_path / "gamma.json"
        serialize.atomic_write_json(str(gpath),
                                    serialize.matrix_to_dict(np.diag([0.3, 0.7]), "gamma", 2))
        out = tmp_path / "qf.json"
        rc = cli.main(["quasifree", "--in", str(gpath), "--out", str(out),
                       "--max-points", "4"])
        assert rc == 0
        payload = json.loads(out.read_text())
        rep = payload["report"]
        assert rep["pdm1_max_dev"] < 1e-9
        assert rep["wick_max_dev"] < 1e-9
        assert rep["points_checked"] == 64
        el = element_from_dict(payload["element"])
        assert el.m == 2

    def test_summary_line_without_out(self, tmp_path, capsys):
        gpath = tmp_path / "gamma.json"
        serialize.atomic_write_json(str(gpath),
                                    serialize.matrix_to_dict(np.diag([0.3, 0.7]), "gamma", 2))
        assert cli.main(["quasifree", "--in", str(gpath)]) == 0
        out, err = capsys.readouterr()
        line = re.fullmatch(
            r"quasifree m=2: pdm1_max_dev (\S+), wick_max_dev (\S+) over 64 words\n", out)
        assert err == "" and line, out
        assert float(line[1]) < 1e-12 and float(line[2]) < 1e-12

    def test_pair_file_gives_its_gamma_output(self, pdm_file, tmp_path, capsys):
        # quasifree reads the inputs check reads and builds from the gamma
        pair_path = pdm_file[0]
        gpath = tmp_path / "gamma.json"
        gpath.write_text(json.dumps(json.loads(pair_path.read_text())["gamma"]))
        runs = []
        for path in (gpath, pair_path):
            out = tmp_path / f"qf-{path.stem}.json"
            assert cli.main(["quasifree", "--in", str(path), "--out", str(out), "--verbose"]) == 0
            runs.append((capsys.readouterr(), out.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0].out.startswith("quasifree m=3: ")

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        gpath = tmp_path / "gamma.json"
        serialize.atomic_write_json(str(gpath),
                                    serialize.matrix_to_dict(np.diag([0.3, 0.7]), "gamma", 2))
        out = tmp_path / "missing" / "qf.json"
        assert cli.main(["quasifree", "--in", str(gpath), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: cannot write --out {out}: "
                                           "No such file or directory\n")

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_output_bytes_are_json_indent_2(self, tmp_path, rng, m):
        u = random_unitary(rng, m)
        gamma = u @ np.diag(rng.uniform(0.05, 0.95, m)) @ u.conj().T
        gpath = tmp_path / "gamma.json"
        serialize.atomic_write_json(str(gpath), serialize.matrix_to_dict(gamma, "gamma", m))
        out = tmp_path / "qf.json"
        assert cli.main(["quasifree", "--in", str(gpath), "--out", str(out)]) == 0
        _, kappa = quasifree.build_quasifree(serialize.matrix_from_dict(
            serialize.load_json(str(gpath)))[0])
        report = json.loads(out.read_text())["report"]
        want = json.dumps({"element": serialize.element_to_dict(kappa), "report": report},
                          indent=2) + "\n"
        assert out.read_bytes() == want.encode()

    def test_points_checked_counts_words(self, tmp_path):
        gpath = tmp_path / "gamma.json"
        serialize.atomic_write_json(str(gpath),
                                    serialize.matrix_to_dict(np.diag([0.3, 0.7]), "gamma", 2))
        out = tmp_path / "qf.json"
        assert cli.main(["quasifree", "--in", str(gpath), "--out", str(out),
                         "--max-points", "2"]) == 0
        # 4 one-generator words and 4 * 3 two-generator words
        assert json.loads(out.read_text())["report"]["points_checked"] == 16

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_max_points_below_one_exit_2(self, tmp_path, capsys, points):
        gpath = tmp_path / "gamma.json"
        serialize.atomic_write_json(str(gpath),
                                    serialize.matrix_to_dict(np.diag([0.3, 0.7]), "gamma", 2))
        out = tmp_path / "qf.json"
        rc = cli.main(["quasifree", "--in", str(gpath), "--out", str(out),
                       "--max-points", points])
        assert rc == 2
        captured = capsys.readouterr()
        assert "max_points" in captured.err
        assert "wick_max_dev" not in captured.out
        assert not out.exists()

    def test_mode_count_past_cap_exit_2(self, tmp_path, capsys):
        gpath = tmp_path / "gamma.json"
        serialize.atomic_write_json(str(gpath),
                                    serialize.matrix_to_dict(0.5 * np.eye(9), "gamma", 9))
        out = tmp_path / "qf.json"
        assert cli.main(["quasifree", "--in", str(gpath), "--out", str(out)]) == 2
        assert "cap 8" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_spectrum_exit_2(self, tmp_path):
        gpath = tmp_path / "gamma.json"
        serialize.atomic_write_json(str(gpath),
                                    serialize.matrix_to_dict(np.diag([1.4, 0.0]), "gamma", 2))
        assert cli.main(["quasifree", "--in", str(gpath)]) == 2


    def test_non_finite_gamma_exit_2(self, tmp_path, capsys):
        gamma = np.diag([0.3, 0.7]).astype(complex)
        gamma[0, 1] = complex(0.0, np.inf)
        gpath = tmp_path / "gamma.json"
        serialize.atomic_write_json(str(gpath), serialize.matrix_to_dict(gamma, "gamma", 2))
        out = tmp_path / "qf.json"
        assert cli.main(["quasifree", "--in", str(gpath), "--out", str(out)]) == 2
        assert "'im'" in capsys.readouterr().err
        assert not out.exists()


class TestSelftest:
    def test_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        assert "selftest passed" in capsys.readouterr().out

    def test_verbose_lists_identities(self, capsys):
        assert cli.main(["selftest", "--verbose"]) == 0
        out = capsys.readouterr().out
        for name in ("trace-anchor", "pair-integral", "car", "cyclicity",
                     "positivity", "splicing"):
            assert f"PASS {name}" in out

    def test_flipped_sign_fails_citing_identity(self, monkeypatch, capsys):
        # the negative control: the definition path with the integral's sign flipped
        raw_integral = selftest.raw_integral
        monkeypatch.setattr(selftest, "raw_integral", lambda el: -raw_integral(el))
        assert cli.main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "FAIL trace-anchor" in out
        assert "FAILED at identity 'trace-anchor'" in out


def test_usage_error_exit_2():
    assert cli.main(["check"]) == 2
    assert cli.main(["frobnicate"]) == 2


def _printed(call, argv, capsys):
    """(exit code, stdout, stderr) of `call(argv)`, a SystemExit taken as its code."""
    try:
        rc = call(argv)
    except SystemExit as exc:
        rc = exc.code
    return (rc, *capsys.readouterr())


def test_help_and_usage_text_equal_the_full_parser(monkeypatch, capsys):
    # help and every usage error print byte for byte what the parser with
    # all four commands prints: the help texts, and a usage line that names
    # all four; an unknown or missing command names `command`
    monkeypatch.setenv("COLUMNS", "100")
    full = cli.build_parser().parse_args
    cases = [["--help"], *([name, "--help"] for name in cli.COMMANDS),
             ["check", "--in", "x", "--bogus"], ["check"], ["fuzz", "--m", "two"],
             ["frobnicate"], []]
    got = {tuple(argv): _printed(cli.main, argv, capsys) for argv in cases}
    for argv in cases:
        assert got[tuple(argv)] == _printed(full, argv, capsys), argv
    for name in cli.COMMANDS:
        rc, out, err = got[(name, "--help")]
        assert (rc, err) == (0, "") and out.startswith(f"usage: grdm {name} [-h]")
    assert got[("check", "--in", "x", "--bogus")] == (
        2, "", "usage: grdm [-h] {check,fuzz,quasifree,selftest} ...\n"
               "grdm: error: unrecognized arguments: --bogus\n")
    rc, _, err = got[("frobnicate",)]
    assert rc == 2 and "grdm: error: argument command: invalid choice: 'frobnicate'" in err
    assert got[()][2].endswith("grdm: error: the following arguments are required: command\n")


@pytest.mark.parametrize("value", [5, None, [], "x"])
def test_non_object_matrix_exit_2(pdm_file, tmp_path, capsys, value):
    gamma = json.loads(pdm_file[0].read_text())["gamma"]
    cases = [("check", {"gamma": value}, "'gamma'"),
             ("check", {"gamma": gamma, "Gamma": value}, "'Gamma'"),
             ("quasifree", value, "'gamma'")]
    for command, data, field in cases:
        path, out = tmp_path / "in.json", tmp_path / "out.json"
        path.write_text(json.dumps(data))
        assert cli.main([command, "--in", str(path), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("entry, message", [('"0.3"', "non-numeric"), ("true", "non-numeric"),
                                            ("null", "non-numeric"), ("1" + "0" * 400, "non-finite")],
                         ids=["string", "true", "null", "huge-int"])
def test_non_numeric_matrix_entry_exit_2(tmp_path, capsys, entry, message):
    # exit 1 means a condition failed; an entry that is no binary64 number is an input error
    gamma = ('{"kind": "gamma", "m": 2, "dim": 2, "re": [[%s, 0], [0, 0.5]], '
             '"im": [[0, 0], [0, 0]]}' % entry)
    for command, data in (("check", '{"gamma": %s}' % gamma), ("quasifree", gamma)):
        path, out = tmp_path / "in.json", tmp_path / "out.json"
        path.write_text(data)
        assert cli.main([command, "--in", str(path), "--out", str(out)]) == 2, command
        err = capsys.readouterr().err
        assert "'re'" in err and message in err, err
        assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (b'\xff\xfe{"gamma": 1}', "not UTF-8"),
    (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
], ids=["utf-16-bom", "deep"])
def test_unreadable_json_file_exit_2(tmp_path, capsys, content, message):
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_bytes(content)
    with pytest.raises(serialize.FormatError, match=message):
        serialize.load_json(str(path))
    for command in ("check", "quasifree"):
        assert cli.main([command, "--in", str(path), "--out", str(out)]) == 2, command
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("data", [{"Gamma": {"kind": "Gamma"}}, {"gama": {"kind": "gamma"}}, {}],
                         ids=["Gamma-only", "misspelt", "empty"])
def test_pair_without_gamma_exit_2(tmp_path, capsys, data):
    # an object with `kind` and no `gamma` is a bare gamma; any other object
    # is a pair, and a pair without `gamma` names that field
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(data))
    for command in ("check", "quasifree"):
        assert cli.main([command, "--in", str(path), "--out", str(out)]) == 2, command
        assert capsys.readouterr().err == "error: missing field 'gamma' in pair\n"
        assert not out.exists()


def _gamma_dict(m, **fields):
    return {**serialize.matrix_to_dict(np.eye(m) / 2, "gamma", m), **fields}


@pytest.mark.parametrize("command, data, message", [
    ("check", {"gamma": _gamma_dict(2),
               "Gamma": serialize.matrix_to_dict(np.zeros((9, 9)), "Gamma", 3)},
     "field 'Gamma' has m = 3, gamma has m = 2"),
    ("check", _gamma_dict(2, kind="rho"), "field 'kind' has unknown value 'rho'"),
    ("quasifree", _gamma_dict(2, kind="rho"), "field 'kind' has unknown value 'rho'"),
    ("check", {"gamma": serialize.matrix_to_dict(np.zeros((4, 4)), "Gamma", 2)},
     "field 'kind' is 'Gamma', expected 'gamma'"),
    ("quasifree", serialize.matrix_to_dict(np.zeros((4, 4)), "Gamma", 2),
     "field 'kind' is 'Gamma', expected 'gamma'"),
    ("check", _gamma_dict(2, re=np.zeros((3, 3)).tolist()),
     "field 're' has shape (3, 3), expected (2, 2)"),
    ("quasifree", _gamma_dict(2, im=[[0.0, 0.0]]), "field 'im' has shape (1, 2), expected (2, 2)"),
    ("check", "{not json", "not valid JSON"),
    ("quasifree", "", "not valid JSON"),
    # a pair's Gamma is checked under both commands, though quasifree reads only gamma
    *((command, {"gamma": _gamma_dict(2),
                 "Gamma": serialize.matrix_to_dict(np.eye(4, k=1) / 2, "Gamma", 2)},
       "Gamma is not Hermitian: max deviation 5.000e-01") for command in ("check", "quasifree")),
], ids=["Gamma-m", "unknown-kind", "unknown-kind-quasifree", "mismatched-kind",
        "mismatched-kind-quasifree", "re-shape", "im-shape", "not-json", "empty-file",
        "skew-Gamma", "skew-Gamma-quasifree"])
def test_bad_input_exit_2_names_field(tmp_path, capsys, command, data, message):
    # exit 2, one error line, no verdict and no output file
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    assert cli.main([command, "--in", str(path), "--out", str(out), "--verbose"]) == 2
    stdout, err = capsys.readouterr()
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert stdout == ""
    assert not out.exists()


def test_empty_out_exit_2(pdm_file, tmp_path, monkeypatch, capsys):
    # an empty --out is a path that cannot be written, on the plain argv and
    # on argparse's `--out=`: exit 2, one error line, no verdict and no file,
    # neither in the working directory nor in its parent
    work = tmp_path / "work" / "here"
    work.mkdir(parents=True)
    monkeypatch.chdir(work)
    for argv in _quick_argvs(pdm_file[0]):
        for out in (["--out", ""], ["--out="]):
            assert cli.main(argv + out) == 2, argv + out
            assert capsys.readouterr() == ("", "error: cannot write --out : "
                                               "No such file or directory\n")
    assert [p.name for p in work.parent.iterdir()] == ["here"]
    assert not any(work.iterdir())


def test_only_main_decides_exit_2():
    # the commands, whose bodies live in their modules, raise OSError or
    # ValueError on bad input; `cli.main` alone prints it as an error line
    # and returns 2
    package = os.path.dirname(os.path.abspath(cli.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        in_main = {id(node) for f in tree.body if name == "cli.py"
                   and isinstance(f, ast.FunctionDef) and f.name == "main" for node in ast.walk(f)}
        for node in ast.walk(tree):
            if id(node) in in_main:
                continue
            if (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                    and node.value.value == 2):
                found.append(f"{name}:{node.lineno}: return 2")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print" and "error:" in ast.unparse(node)):
                found.append(f"{name}:{node.lineno}: print of error:")
    assert found == []


def test_parser_built_once_per_process(pdm_file, tmp_path):
    # a plain argv builds no parser; argparse builds one, on the first argv
    # that needs it, and serves every later call; a usage error leaves it
    # usable, and no option of one call carries over into the next, on
    # either path
    cli.build_parser.cache_clear()
    path = str(pdm_file[0])
    outs = [str(tmp_path / f"r{k}.json") for k in range(4)]
    assert cli.main(["check", "--in", path, "--out", outs[0]]) == 0
    assert cli.build_parser.cache_info().currsize == 0
    assert cli.main(["check", "--in", path, "--tol", "lots"]) == 2
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["--bogus"]) == 2
    assert cli.main(["check", f"--in={path}", "--out", outs[1], "--tol", "0.5"]) == 0
    assert cli.main(["check", f"--in={path}", "--out", outs[2]]) == 0
    assert cli.main(["check", "--in", path, "--out", outs[3]]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 4, 1)
    first, override, *rest = (json.loads(open(p).read()) for p in outs)
    assert rest == [first, first] and first != override
    assert {r["tol"] for r in override} == {0.5}


_FLAGS = sorted({flag for _, _, options in cli.COMMANDS.values() for flag, _ in options})
_ARGV_VALUES = ["5", "0", "12", "0.5", "nan", "two", "-1", "", "x"]
_ARGV_TOKENS = [*cli.COMMANDS, *_FLAGS, *(flag[:-1] for flag in _FLAGS), "--se", "--in=x",
                "--tol=5", "--m=5", "-h", "--help", "--", *_ARGV_VALUES]


@st.composite
def _argvs(draw):
    """A command (or none), some of its options with or without values, and up to two stray tokens."""
    command = draw(st.sampled_from([*cli.COMMANDS, None]))
    options = cli.COMMANDS[command][2] if command else [(flag, {}) for flag in _FLAGS]
    argv = [command] * (command is not None)
    for flag, kwargs in draw(st.lists(st.sampled_from(options), max_size=5)):
        value = None if "action" in kwargs else draw(st.sampled_from([*_ARGV_VALUES, None]))
        argv += [flag] if value is None else [flag, value]
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_ARGV_TOKENS)))
    return argv


@settings(max_examples=500, deadline=None)
@given(_argvs())
def test_parse_agrees_with_argparse(argv):
    # `_parse` gives what the full parser gives, or declines: every argv
    # that argparse rejects or answers with help goes to argparse; the items
    # compare by repr, so a value is equal with its type and `--tol nan` too
    got = cli._parse(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            want = cli.build_parser().parse_args(argv)
    except SystemExit:
        assert got is None, argv
    else:
        assert got is None or repr(sorted(vars(got).items())) == repr(sorted(vars(want).items())), argv


def _fresh_process(code: str) -> list:
    """Run `code` in a fresh interpreter on this checkout's grdm; it prints one JSON value."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(grdm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return json.loads(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                     text=True, check=True).stdout)


def test_import_pulls_no_scipy(tmp_path):
    # grdm depends on numpy alone, and each command loads only the grdm
    # modules it runs: in a fresh process a cold check, fuzz, quasifree or
    # selftest run loads neither scipy nor numpy.ma (about 14 ms cold), check
    # needs only the condition table and the closed-form realization, no
    # element kernel, no star-product side, no Fock oracle and no quasifree
    # module; fuzz needs the table, the kernel, the star-product side and the
    # oracle, but neither the closed-form realization nor the public element
    # API (`algebra`), and it reads no file, so it loads no `serialize`: its
    # --out goes through `cli`'s writer; quasifree needs only the kernel and
    # its module, neither realization of the conditions; selftest needs no
    # reader or writer; no command loads `dataclasses`, and a successful one
    # neither `argparse` nor the `gettext` and `locale` of its messages.  Each command compiles
    # only its own body: of the loaded grdm modules only the command's own
    # defines a command entry (`run`), and only quasifree loads the element
    # JSON leaf (`_element`)
    gamma, Gamma = fock.pdms_from_rho(fock.random_density(5, 11))
    pair, gpath = tmp_path / "pair.json", tmp_path / "gamma.json"
    serialize.atomic_write_json(str(pair), {"gamma": serialize.matrix_to_dict(gamma, "gamma", 5),
                                            "Gamma": serialize.matrix_to_dict(Gamma, "Gamma", 5)})
    serialize.atomic_write_json(str(gpath), serialize.matrix_to_dict(
        np.diag([0.2, 0.4, 0.6, 0.8]), "gamma", 4))
    base = ["grdm", "grdm.cli", "grdm.limits", "grdm.serialize", "grdm.table"]
    runs = [(["check", "--in", str(pair), "--out", str(tmp_path / "r.json")],
             sorted(base + ["grdm.closed"]), []),
            (["fuzz", "--m", "3", "--trials", "1", "--out", str(tmp_path / "f.json")],
             ["grdm", "grdm.cli", "grdm.conditions", "grdm.fock", "grdm.kernel", "grdm.limits",
              "grdm.table"], []),
            (["quasifree", "--in", str(gpath), "--out", str(tmp_path / "q.json")],
             ["grdm", "grdm.cli", "grdm.kernel", "grdm.limits", "grdm.quasifree",
              "grdm.serialize"], ["grdm.quasifree"]),
            (["selftest"], ["grdm", "grdm.algebra", "grdm.cli", "grdm.fock", "grdm.kernel",
                            "grdm.limits", "grdm.selftest"], [])]
    for argv, modules, leaves in runs:
        code = ("import io, json, sys; from grdm import cli; "
                "sys.stdout, out = io.StringIO(), sys.stdout; rc = cli.main(%r); sys.stdout = out; "
                "grdm = sorted(k for k in sys.modules if k.split('.')[0] == 'grdm'); "
                "print(json.dumps([rc, grdm, "
                "sorted(k for k in sys.modules "
                "if k.split('.')[0] == 'scipy' or k.split('.')[:2] == ['numpy', 'ma']), "
                "sorted({'argparse', 'dataclasses', 'gettext', 'locale'} & set(sys.modules)), "
                "[k for k in grdm if callable(getattr(sys.modules[k], 'run', None))], "
                "[k for k in grdm if hasattr(sys.modules[k], '_element')]]))"
                % argv)
        entries = [f"grdm.{cli.COMMANDS[argv[0]][0]}"]
        assert _fresh_process(code) == [0, modules, [], [], entries, leaves], argv[0]


def test_conditions_imports_closed_only_in_its_closed_form_wrappers():
    # in a fresh process `import grdm.conditions` loads the table, the kernel
    # and limits but not the closed-form realization; its closed-form
    # wrappers import `closed` when they run, and their reports then equal
    # `closed.battery`'s float for float
    code = ("import json, sys; import grdm.conditions as cond; "
            "loaded = sorted(k for k in sys.modules if k.split('.')[0] == 'grdm'); "
            "from grdm import fock; "
            "gamma, Gamma = fock.pdms_from_rho(fock.random_density(4, 12)); "
            "P = cond.check_P(gamma, Gamma).as_dict(); "
            "T2 = cond.report_from_form('T2', cond.t2_form_from_pdms(gamma, Gamma), "
            "'closed-form').as_dict(); "
            "after = 'grdm.closed' in sys.modules; from grdm import closed; "
            "battery = {r.condition: r.as_dict() for r in closed.battery(gamma, Gamma)}; "
            "print(json.dumps([loaded, after, P, T2, battery['P'], battery['T2']]))")
    loaded, after, P, T2, battery_P, battery_T2 = _fresh_process(code)
    assert loaded == ["grdm", "grdm.conditions", "grdm.kernel", "grdm.limits", "grdm.table"]
    assert after
    assert (P, T2) == (battery_P, battery_T2)


def test_each_name_has_one_import_path():
    # the package binds `__version__` alone, so every name is imported from
    # its defining module: `from grdm import X` names a module of the package
    # in the package, the scripts, the benchmark and the tests, and a bare
    # `import grdm` loads no submodule
    package = os.path.dirname(os.path.abspath(grdm.__file__))
    root = os.path.dirname(os.path.dirname(package))
    modules = {name[:-3] for name in os.listdir(package) if name.endswith(".py")} - {"__init__"}
    with open(os.path.join(package, "__init__.py")) as f:
        doc, *rest = ast.parse(f.read()).body
    assert isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
    assert [ast.unparse(node) for node in rest] == [f"__version__ = {grdm.__version__!r}"]
    found = []
    for folder in (package, *(os.path.join(root, d) for d in ("scripts", "grdmbench", "tests"))):
        for name in sorted(os.listdir(folder)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(folder, name)) as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (
                        (node.level, node.module) == (0, "grdm")
                        or (folder == package and (node.level, node.module) == (1, None))):
                    found += [f"{name}:{node.lineno}: {a.name}" for a in node.names
                              if a.name not in modules]
    assert not found, found
    assert _fresh_process("import json, sys, grdm; print(json.dumps("
                          "sorted(k for k in sys.modules if k.startswith('grdm.'))))") == []
