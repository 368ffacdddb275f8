"""Self-checks of the benchmark harness; they need numpy but not grdm.

    python3 grdmbench/selfcheck.py          # or: python3 -m pytest grdmbench/selfcheck.py

Covers: seeded inputs are byte-identical and built without importing grdm;
the judges reject a flipped verdict, a perturbed element coefficient and a
wrong exit code; self times of a synthetic span tree; the normalisation
arithmetic; and agreement of the metric names with BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostref  # noqa: E402
import inputs  # noqa: E402
import judge  # noqa: E402
import run  # noqa: E402
from tracing import Span, self_times_by_name, self_times_ns  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class CheckFailed(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@contextmanager
def scratch_dir(tag: str):
    path = os.path.join(HERE, ".work", f"selfcheck-{tag}-{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(path))
        except OSError:
            pass


def _digest(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_inputs_repeat_and_import_no_grdm():
    code = (
        "import sys, json\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "from workloads import WORKLOADS\n"
        "for name, cls in WORKLOADS.items():\n"
        "    w = cls(sys.argv[2] + '/' + name, int(sys.argv[1])); w.prepare()\n"
        "    [w.argv(op) for op in range(3)]\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'grdm')))\n"
    )
    with scratch_dir("inputs") as root:
        digests = []
        for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
            base = os.path.join(root, tag)
            for name in WORKLOADS:
                os.makedirs(os.path.join(base, name))
            # grdm stays importable, so an import of it would show in sys.modules
            env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
            proc = subprocess.run([sys.executable, "-c", code, str(seed), base], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            require(json.loads(proc.stdout) == [], f"input generation imported {proc.stdout.strip()}")
            digests.append({n: _digest(os.path.join(base, n)) for n in WORKLOADS})
        require(digests[0] == digests[1], "the same seed gave different input bytes")
        for name in ("check-m5", "quasifree-m4"):
            require(digests[0][name] != digests[2][name], f"{name}: another seed gave the same inputs")
    require(inputs.fuzz_seed(7, 0) == inputs.fuzz_seed(7, 0) != inputs.fuzz_seed(7, 1),
            "fuzz seeds do not follow the workload seed and op")


def _check_report(pair: dict, shifted: bool) -> list[dict]:
    Gamma = np.asarray(pair["Gamma"]["re"]) + 1j * np.asarray(pair["Gamma"]["im"])
    margin = float(np.linalg.eigvalsh(Gamma).min())
    return [{"condition": c, "margin": margin if c == "P" else 0.1,
             "pass": not (shifted and c == "P"), "tol": 1e-9, "method": "closed-form"}
            for c in judge.CHECK_CONDITIONS]


def test_judge_check():
    pool = inputs.check_pool(3)
    with scratch_dir("judge-check") as d:
        path = os.path.join(d, "report.json")
        for k in (0, inputs.SHIFT_EVERY - 1):
            shifted = inputs.is_shifted(k)
            good = _check_report(pool[k], shifted)
            rc = 1 if shifted else 0
            with open(path, "w") as fh:
                json.dump(good, fh)
            require(judge.judge_check(rc, path, pool[k], shifted) is None, "correct check output rejected")
            require(judge.judge_check(1 - rc, path, pool[k], shifted) is not None, "wrong exit code accepted")
            for idx in (1, 5):
                bad = json.loads(json.dumps(good))
                bad[idx]["pass"] = not bad[idx]["pass"]
                with open(path, "w") as fh:
                    json.dump(bad, fh)
                require(judge.judge_check(rc, path, pool[k], shifted) is not None, "flipped verdict accepted")
            bad = json.loads(json.dumps(good))
            bad[1]["margin"] += 1e-6
            with open(path, "w") as fh:
                json.dump(bad, fh)
            require(judge.judge_check(rc, path, pool[k], shifted) is not None, "wrong P margin accepted")


def _diagonal_quasifree_element(lam: list[float]) -> dict:
    """Element of the product density prod_i ((1 - l_i) + (2 l_i - 1) n_i), built by hand."""
    m = len(lam)
    terms = []
    for mask in range(1 << m):
        idx = [i + 1 for i in range(m) if mask >> i & 1]
        k = len(idx)
        coeff = -1.0 if (k * (k - 1) // 2) & 1 else 1.0
        for i in range(m):
            coeff *= (2 * lam[i] - 1) if mask >> i & 1 else (1 - lam[i])
        terms.append({"bar": idx, "unbar": idx, "re": coeff, "im": 0.0})
    return {"m": m, "terms": terms}


def test_judge_quasifree():
    lam = [0.1, 0.35, 0.6, 0.85]
    gamma = inputs.matrix_dict(np.diag(lam), "gamma", 4)
    good = {"element": _diagonal_quasifree_element(lam),
            "report": {"pdm1_max_dev": 1e-16, "wick_max_dev": 1e-16, "points_checked": 2080}}
    with scratch_dir("judge-quasifree") as d:
        path = os.path.join(d, "q.json")
        with open(path, "w") as fh:
            json.dump(good, fh)
        require(judge.judge_quasifree(0, path, gamma) is None, "correct quasifree output rejected")
        require(judge.judge_quasifree(1, path, gamma) is not None, "wrong exit code accepted")
        for term in (0, 5, 15):
            bad = json.loads(json.dumps(good))
            bad["element"]["terms"][term]["re"] += 1e-6
            with open(path, "w") as fh:
                json.dump(bad, fh)
            require(judge.judge_quasifree(0, path, gamma) is not None,
                    f"perturbed coefficient of term {term} accepted")
        bad = json.loads(json.dumps(good))
        bad["report"]["points_checked"] = 2079
        with open(path, "w") as fh:
            json.dump(bad, fh)
        require(judge.judge_quasifree(0, path, gamma) is not None, "short Wick check accepted")


def test_judge_fuzz():
    good = {"m": 5, "trials": 1, "seed": 11, "sector": None, "pdm_max_dev": 1e-14,
            "contraction_max_dev": 0.0, "failures": 0, "all_pass": True,
            "worst_margins": {c: 0.01 for c in judge.CHECK_CONDITIONS}}
    with scratch_dir("judge-fuzz") as d:
        path = os.path.join(d, "s.json")
        with open(path, "w") as fh:
            json.dump(good, fh)
        require(judge.judge_fuzz(0, path, 11) is None, "correct fuzz output rejected")
        require(judge.judge_fuzz(1, path, 11) is not None, "wrong exit code accepted")
        require(judge.judge_fuzz(0, path, 12) is not None, "summary of another seed accepted")
        for key, value in (("failures", 1), ("all_pass", False), ("pdm_max_dev", 1e-6)):
            with open(path, "w") as fh:
                json.dump(dict(good, **{key: value}), fh)
            require(judge.judge_fuzz(0, path, 11) is not None, f"{key}={value} accepted")


def test_self_times_of_a_span_tree():
    # root [0,100] with children A [10,40] and B [50,70]; A has C [20,30] and an
    # overlapping D [25,35]; B has E [50,70] covering all of it
    spans = [Span("root", 0, 100, -1), Span("A", 10, 40, 0), Span("C", 20, 30, 1),
             Span("D", 25, 35, 1), Span("B", 50, 70, 0), Span("E", 50, 70, 4)]
    require(self_times_ns(spans) == [50, 15, 10, 10, 0, 20], f"self times {self_times_ns(spans)}")
    require(sum(self_times_ns(spans)) != 100, "overlapping children must not be counted twice")
    flat = [Span("op", 0, 90, -1), Span("x", 0, 30, 0), Span("y", 40, 60, 0), Span("x", 70, 80, 0)]
    by_name = self_times_by_name(flat)
    require(by_name == {"op": 30, "x": 40, "y": 20}, f"self times by name {by_name}")
    require(sum(by_name.values()) == 90, "self times of a tree without overlap must add up to the root")


def test_normalisation():
    nominal = hostref.REF_NOMINAL_MS
    require(hostref.speed_factor(nominal, nominal) == 1.0, "nominal host speed is not factor 1")
    require(abs(hostref.speed_factor(nominal, 2 * nominal) - 1.5) < 1e-12, "factor is not the mean over nominal")
    require(abs(hostref.normalise(300.0, 1.5) - 200.0) < 1e-12, "normalise does not divide by the factor")
    ops = [{"wall_ms": w, "cpu_ms": w, "ref_ms": [nominal * f, nominal * f], "threads": 1}
           for w, f in ((100.0, 1.0), (300.0, 1.5), (180.0, 2.0), (50.0, 0.5), (120.0, 1.0))]
    setups = [{"setup_ms": 900.0, "ref_ms": [nominal * 1.5] * 2}, {"setup_ms": 500.0, "ref_ms": [nominal] * 2},
              {"setup_ms": 2000.0, "ref_ms": [nominal * 2] * 2}]
    metrics, detail = run.end_to_end_metrics(setups, {"ops": ops, "peak_rss_mb": 80.0})
    # normalised latencies 100, 200, 90, 100, 120 ms; set-ups 0.6, 0.5, 1.0 s
    require(abs(metrics["latency_p50_ms"] - 100.0) < 1e-9, f"p50 {metrics['latency_p50_ms']}")
    require(abs(metrics["latency_p90_ms"] - 168.0) < 1e-9, f"p90 {metrics['latency_p90_ms']}")
    require(abs(metrics["setup_s"] - 0.6) < 1e-12, f"setup_s {metrics['setup_s']}")
    require(detail["latency_raw_p50_ms"] == 120.0 and detail["host.speed_factor"] == 1.0,
            "raw median or median speed factor wrong")
    require(detail["p90_beyond"] == 1, f"{detail['p90_beyond']} samples beyond p90")


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    require({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
            "end_to_end metrics differ from run.END_TO_END")
    require({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
            "per_layer metrics differ from run.PER_LAYER")
    require(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
            "workloads differ from workloads.WORKLOADS")


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except CheckFailed as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
