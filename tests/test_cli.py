"""CLI exit-code contract, JSON schemas, and report round trips."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import grdm
from grdm import cli, fock, serialize
from grdm.algebra import make_element
from conftest import rand_element


@pytest.fixture
def pdm_file(tmp_path):
    rho = fock.random_density(3, 5)
    gamma, Gamma = fock.pdms_from_rho(rho)
    path = tmp_path / "pdms.json"
    serialize.atomic_write_json(str(path), {
        "gamma": serialize.matrix_to_dict(gamma, "gamma", 3),
        "Gamma": serialize.matrix_to_dict(Gamma, "Gamma", 3),
    })
    return path, gamma, Gamma


class TestSerialize:
    def test_element_roundtrip_bit_exact(self, rng):
        for _ in range(10):
            a = rand_element(rng, 3)
            blob = json.dumps(serialize.element_to_dict(a))
            back = serialize.element_from_dict(json.loads(blob))
            assert back.m == a.m
            assert back.terms == a.terms  # bit-exact for binary64

    def test_element_json_equals_sorted_terms_walk(self, rng):
        # element_to_dict reads the sorted arrays; the JSON is the one the
        # walk over sorted(terms) wrote, byte for byte
        kappa = fock.from_operator(fock.random_density(3, 5))
        for a in (kappa, rand_element(rng, 3, nterms=12), make_element(2, [])):
            want = {"m": a.m, "terms": [
                {"bar": list(k.bar_indices()), "unbar": list(k.unbar_indices()),
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

    def test_operator_and_density_kinds(self, rng):
        rho = fock.random_density(2, 3)
        d = serialize.matrix_to_dict(rho, "density", 2)
        back, kind, m = serialize.matrix_from_dict(d, "density")
        assert kind == "density" and m == 2 and np.array_equal(back, rho)
        with pytest.raises(serialize.FormatError, match="'dim'"):
            serialize.matrix_from_dict({"kind": "operator", "m": 2, "dim": 3,
                                        "re": [[0] * 3] * 3, "im": [[0] * 3] * 3})

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
                serialize.element_from_dict({"m": m, "terms": []})
        with pytest.raises(serialize.FormatError, match="'dim'"):
            serialize.matrix_from_dict({"kind": "gamma", "m": 1, "dim": True,
                                        "re": [[0.5]], "im": [[0.0]]})
        with pytest.raises(serialize.FormatError, match="'re'"):
            serialize.element_from_dict({"m": 1, "terms": [
                {"bar": [], "unbar": [], "re": False, "im": 0.0}]})

    def test_atomic_write_no_partial(self, tmp_path):
        path = tmp_path / "out.json"
        serialize.atomic_write_json(str(path), {"x": 1})
        assert json.loads(path.read_text()) == {"x": 1}
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers

    def test_atomic_write_bytes(self, tmp_path, rng):
        path = tmp_path / "out.json"
        obj = {"element": serialize.element_to_dict(rand_element(rng, 3)),
               "report": {"dev": 1e-300, "zero": -0.0, "pass": True, "seed": None, "name": "G"},
               "rows": [[], [0.1, 2], {}]}
        serialize.atomic_write_json(str(path), obj)
        assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode()


class TestCheck:
    def test_genuine_passes(self, pdm_file, tmp_path):
        path, _, _ = pdm_file
        out = tmp_path / "report.json"
        rc = cli.main(["check", "--in", str(path), "--out", str(out)])
        assert rc == 0
        reports = json.loads(out.read_text())
        names = [r["condition"] for r in reports]
        assert names == ["first-order", "P", "Q", "G", "T1", "T2"]
        assert all(r["pass"] for r in reports)
        assert all(r["margin"] >= -r["tol"] for r in reports)

    def test_corrupted_gamma2_fails(self, pdm_file, tmp_path):
        path, gamma, Gamma = pdm_file
        bad = tmp_path / "bad.json"
        serialize.atomic_write_json(str(bad), {
            "gamma": serialize.matrix_to_dict(gamma, "gamma", 3),
            "Gamma": serialize.matrix_to_dict(Gamma - 0.1 * np.eye(9), "Gamma", 3),
        })
        rc = cli.main(["check", "--in", str(bad)])
        assert rc == 1

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
        summary = json.loads(out.read_text())
        assert summary["all_pass"] and summary["trials"] == 5
        assert summary["pdm_max_dev"] < 1e-10

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["fuzz", "--m", "2", "--trials", "4", "--seed", "3", "--out", str(a)])
        cli.main(["fuzz", "--m", "2", "--trials", "4", "--seed", "3", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_cap_exceeded_exit_2(self, capsys):
        assert cli.main(["fuzz", "--m", "9", "--trials", "2"]) == 2
        assert "cap 8" in capsys.readouterr().err

    def test_zero_trials_exit_2(self, capsys):
        assert cli.main(["fuzz", "--m", "2", "--trials", "0"]) == 2
        assert "trials must be >= 1" in capsys.readouterr().err

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
        el = serialize.element_from_dict(payload["element"])
        assert el.m == 2

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

    def test_flipped_sign_fails_citing_identity(self, capsys):
        assert cli.main(["selftest", "--flip-sign"]) == 1
        out = capsys.readouterr().out
        assert "FAIL trace-anchor" in out
        assert "FAILED at identity 'trace-anchor'" in out


def test_usage_error_exit_2():
    assert cli.main(["check"]) == 2
    assert cli.main(["frobnicate"]) == 2


def test_parser_built_once_per_process(pdm_file, tmp_path):
    # one parser serves every main call; a usage error leaves it usable and
    # no option of one call carries over into the next
    cli.build_parser.cache_clear()
    path = str(pdm_file[0])
    outs = [str(tmp_path / f"r{k}.json") for k in range(3)]
    assert cli.main(["check", "--in", path, "--out", outs[0]]) == 0
    assert cli.main(["check", "--in", path, "--tol", "lots"]) == 2
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["check", "--in", path, "--out", outs[1], "--tol", "0.5"]) == 0
    assert cli.main(["check", "--in", path, "--out", outs[2]]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    first, override, last = (json.loads(open(p).read()) for p in outs)
    assert last == first != override
    assert {r["tol"] for r in override} == {0.5}


def test_import_pulls_no_scipy(tmp_path):
    # grdm depends on numpy alone: neither importing the CLI nor a cold check,
    # fuzz or quasifree run may load scipy, or numpy.ma (about 14 ms cold)
    src = os.path.dirname(os.path.dirname(os.path.abspath(grdm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    gamma, Gamma = fock.pdms_from_rho(fock.random_density(5, 11))
    pair, gpath = tmp_path / "pair.json", tmp_path / "gamma.json"
    serialize.atomic_write_json(str(pair), {"gamma": serialize.matrix_to_dict(gamma, "gamma", 5),
                                            "Gamma": serialize.matrix_to_dict(Gamma, "Gamma", 5)})
    serialize.atomic_write_json(str(gpath), serialize.matrix_to_dict(
        np.diag([0.2, 0.4, 0.6, 0.8]), "gamma", 4))
    runs = [["check", "--in", str(pair), "--out", str(tmp_path / "r.json")],
            ["fuzz", "--m", "3", "--trials", "1", "--out", str(tmp_path / "f.json")],
            ["quasifree", "--in", str(gpath), "--out", str(tmp_path / "q.json")]]
    code = ("import sys, grdm.cli; "
            f"codes = [grdm.cli.main(argv) for argv in {runs!r}]; "
            "print(codes, sorted(k for k in sys.modules "
            "if k.split('.')[0] == 'scipy' or k.split('.')[:2] == ['numpy', 'ma']))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[0, 0, 0] []"
