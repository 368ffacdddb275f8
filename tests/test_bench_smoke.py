"""The benchmark harness end to end: every workload, traced, ends with a correct result line.

The traced replays call grdm's functions by name, so a change to what they
read (`len(kappa.terms)`, `check_T1_full(kappa)`, the work-size counts)
shows here before a benchmark run is spent on it.  They do not follow the
CLI ops call for call: check-m5's replay runs the five closed checks one by
one, each validating the pair, where `grdm check` runs `closed.battery`,
and fuzz-m5's runs the closed P, Q and G beside the star T1 and T2, where
`grdm fuzz` runs the star battery.  The result line must carry every
per-layer metric BENCHMARK.json declares.  The harness drops a metric whose
source is gone and still exits 0, so this test is what fails: without the
memo of `algebra._star_monomials_terms` (the per-pair memo of the star
kernel behind `star_monomials`) it fails on the three
`algebra.star_memo_*` names, and the memo stays while they are declared.
The three one-second runs go in parallel and take about 5 s on two cores.
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
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {metric["name"] for metric in json.load(fh)["per_layer"]}
    for w, (out, err) in outputs.items():
        assert procs[w].returncode == 0, (w, out[-2000:], err[-2000:])
        last = json.loads(out.strip().splitlines()[-1])
        assert last["correct"] is True, (w, last)
        assert set(last["metrics"]) == declared, (w, declared ^ set(last["metrics"]))
