"""Smoke test of the experiment scripts: each runs to completion on a small input."""

import os
import subprocess
import sys

import grdm
from grdm.limits import ELEMENT_CAP, FOCK_CAP, QUASIFREE_CAP

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(grdm.__file__)))


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def _start(runs):
    return [subprocess.Popen([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                             env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for script, *args in runs]


def test_scripts_exit_0():
    runs = [
        ["quasifree_recovery.py", "--m", "3", "--samples", "2"],
        ["quasifree_recovery.py", "--m", "7", "--samples", "1"],
        ["fuzz_campaign.py", "--trials", "1", "--max-m", "2"],
        ["map_build_times.py", "--m", "3", "--repeats", "1"],
        ["map_build_times.py", "--m", "9", "11", "--repeats", "1"],
        ["write_times.py", "--m", "4", "--repeats", "1"],
        ["start_up.py", "--runs", "1"],
    ]
    for (script, *args), proc in zip(runs, _start(runs)):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{script} exited {proc.returncode}: {err}"
        assert out.strip(), f"{script} printed nothing"
        if script == "quasifree_recovery.py":
            # a header, then one row per spectrum window ending in the two medians
            rows = [line.split() for line in out.strip().splitlines()]
            assert rows[0] == ["window", "pdm1", "dev", "pdm2", "dev", "wick", "dev",
                               "build", "ms", "verify", "ms"]
            assert len(rows) == 5 and all(len(row) == 8 for row in rows[1:])
            assert all(float(row[-2]) > 0 and float(row[-1]) > 0 for row in rows[1:])
        if script == "map_build_times.py":
            # a header, then one row per build with one median per m, or `-`
            # past the build's cap: the element side stops at ELEMENT_CAP,
            # the closed-form maps run on
            ms = [int(m) for m in args[1:args.index("--repeats")]]
            caps = {"words@4": QUASIFREE_CAP, "element": FOCK_CAP,
                    **dict.fromkeys(["moment", "P", "Q", "G", "T1", "T2"], ELEMENT_CAP)}
            rows = [line.split() for line in out.strip().splitlines()]
            assert rows[0] == ["build", "(ms)", *(f"m={m}" for m in ms)]
            assert [row[0] for row in rows[1:]] == [
                "moment", "P", "Q", "G", "T1", "T2", "closed-P", "closed-Q", "closed-G",
                "closed-T1", "closed-T2", "words@4", "element"]
            for name, *cells in rows[1:]:
                for m, cell in zip(ms, cells, strict=True):
                    assert cell == "-" if m > caps.get(name, m) else float(cell) >= 0, (name, m, cell)
        if script == "write_times.py":
            # the script asserts byte identity itself; one row per payload shape
            rows = [line.split() for line in out.strip().splitlines()]
            assert [row[0] for row in rows[1:]] == ["quasifree-m4"]
            assert all(len(row) == 4 for row in rows[1:])
            assert rows[-1][1] == "70"
        if script == "start_up.py":
            # a header, then per command its median import, cold-op and warm-op
            # ms, source KB, code lines and grdm modules; then a header and per
            # command its stdlib modules beyond numpy's.  check loads the table
            # and the closed-form realization, and no `dataclasses`; fuzz loads
            # the table and the star-product side, not the closed-form
            # realization, and no `serialize`, since it reads no file; no
            # command loads `argparse`, which only help and usage errors need
            table, stdlib = ([line.split() for line in block.splitlines()]
                             for block in out.strip().split("\n\n"))
            assert table[0] == ["command", "import", "ms", "cold", "op", "ms", "warm", "op", "ms",
                                "source", "KB", "code", "lines", "grdm", "modules"]
            assert stdlib[0] == ["command", "stdlib", "modules", "beyond", "numpy"]
            for rows in (table, stdlib):
                assert [row[0] for row in rows[1:]] == ["check", "fuzz", "quasifree", "selftest"]
            assert all(float(x) > 0 for row in table[1:] for x in row[1:5])
            assert all(int(row[5]) > 0 for row in table[1:])
            assert table[1][6:] == ["grdm", "cli", "closed", "limits", "serialize", "table"]
            assert table[2][6:] == ["grdm", "cli", "conditions", "fock", "kernel", "limits",
                                    "table"]
            assert "dataclasses" not in stdlib[1]
            assert all("argparse" not in row for row in stdlib[1:])


def test_fuzz_campaign_bad_arguments_exit_2():
    # each is rejected before any job runs, so not even the table header prints
    cases = [
        ("fuzz_campaign.py", "--max-m", ["--trials", "1", "--max-m", "9"]),
        ("fuzz_campaign.py", "--max-m", ["--trials", "1", "--max-m", "1"]),
        ("fuzz_campaign.py", "--trials", ["--trials", "0", "--max-m", "2"]),
        ("quasifree_recovery.py", "--m", ["--m", "9"]),
        ("quasifree_recovery.py", "--m", ["--m", "0"]),
        ("quasifree_recovery.py", "--samples", ["--samples", "0"]),
        ("quasifree_recovery.py", "--max-points", ["--max-points", "0"]),
        ("map_build_times.py", "--repeats", ["--m", "3", "--repeats", "0"]),
        ("map_build_times.py", "--m", ["--m", "17"]),
        ("write_times.py", "--repeats", ["--m", "4", "--repeats", "0"]),
        ("write_times.py", "--m", ["--m", "9"]),
        ("start_up.py", "--runs", ["--runs", "0"]),
    ]
    procs = _start([[script, *args] for script, _, args in cases])
    for (script, flag, args), proc in zip(cases, procs):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 2, (script, args, proc.returncode, err)
        assert not out
        assert flag in err, err
