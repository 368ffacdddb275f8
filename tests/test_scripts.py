"""Smoke test of the experiment scripts: each runs to completion on a small input."""

import os
import subprocess
import sys

import grdm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(grdm.__file__)))


def test_scripts_exit_0():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    runs = [
        ["quasifree_recovery.py", "--m", "3", "--samples", "2"],
        ["quasifree_recovery.py", "--m", "7", "--samples", "1"],
        ["fuzz_campaign.py", "--trials", "1", "--max-m", "2"],
    ]
    procs = [subprocess.Popen([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for script, *args in runs]
    for (script, *_), proc in zip(runs, procs):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{script} exited {proc.returncode}: {err}"
        assert out.strip(), f"{script} printed nothing"
        if script == "quasifree_recovery.py":
            assert "pdm2 dev" in out
