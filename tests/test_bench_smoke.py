"""The benchmark harness end to end: every workload, traced, ends with a correct result line.

The traced replays call grdm's public functions the way the CLI ops do, so a
change to what they read (`len(kappa.terms)`, `check_T1_full(kappa)`, the
work-size counts) shows here before a benchmark run is spent on it.  The
three one-second runs go in parallel and take about 5 s on two cores.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("check-m5", "fuzz-m5", "quasifree-m4")


def test_every_workload_ends_with_a_correct_result_line():
    cmd = [sys.executable, os.path.join(ROOT, "grdmbench", "run.py"),
           "--seed", "3", "--seconds", "1", "--trace", "1"]
    procs = {w: subprocess.Popen(cmd + ["--workload", w], cwd=ROOT, stdin=subprocess.DEVNULL,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for w in WORKLOADS}
    try:
        outputs = {w: p.communicate(timeout=300) for w, p in procs.items()}
    finally:
        for p in procs.values():
            if p.poll() is None:
                p.kill()
                p.wait()
    for w, (out, err) in outputs.items():
        assert procs[w].returncode == 0, (w, out[-2000:], err[-2000:])
        last = json.loads(out.strip().splitlines()[-1])
        assert last["correct"] is True, (w, last)
