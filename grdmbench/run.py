"""grdm benchmark: closed-loop workloads with host-normalised latencies.

    python3 grdmbench/run.py --workload check-m5 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the grdm sources are
taken from its `src/`.  Workloads: check-m5, fuzz-m5, quasifree-m4 (see
workloads.py for why each was chosen).  One run:

1. builds the workload's inputs from --seed with numpy alone, in a work
   directory under grdmbench/.work that is removed afterwards;
2. measures set-up (`from grdm import cli` plus the cold first op) in
   SETUP_PROCESSES fresh worker processes, one after another;
3. the last of them then runs the closed loop, one client, for --seconds;
4. judges every op's exit code and output, and prints every metric by name
   with its unit.  The last line of output is one JSON object with the keys
   correct, attempted, failed and metrics; the line before it is a JSON
   object with the key "detail" holding the figures that are reported but
   not bounded, the work-size counts and the environment.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the loop alternates untraced ops with traced replays and the
metrics are the per-layer ones.  All latencies are host-normalised, see
hostref.py.  The exit code is 0 when every op was correct, 1 when one was
not, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostref  # noqa: E402
from workloads import EXPECTED_COUNTS, WORKLOADS  # noqa: E402

SETUP_PROCESSES = 5
WORKER_TIMEOUT_S = 150
# the worker is single-threaded: no BLAS threads, no grdm thread pool
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Span names recorded by the replays that are reported under a group name.
SPAN_GROUPS = {
    "conditions.check_P": "conditions.closed_pqg",
    "conditions.check_Q": "conditions.closed_pqg",
    "conditions.check_G": "conditions.closed_pqg",
    "serialize.load_json": "serialize.load",
    "serialize.matrix_from_dict": "serialize.load",
    "serialize.element_to_dict": "serialize.write",
    "serialize.atomic_write_json": "serialize.write",
}

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run.  Times are host-normalised self times
# per op (means, so that they add up to trace.op_ms); a layer a workload does
# not call reads 0.
PER_LAYER = {
    "conditions.t2_form_from_pdms_ms": "ms",
    "conditions.t1_form_from_pdms_ms": "ms",
    "conditions.first_order_report_ms": "ms",
    "conditions.report_from_form_ms": "ms",
    "conditions.closed_pqg_ms": "ms",
    "conditions.check_T2_full_ms": "ms",
    "conditions.check_T1_full_ms": "ms",
    "conditions.pdm2_from_density_ms": "ms",
    "conditions.pdm1_from_density_ms": "ms",
    "fock.random_density_ms": "ms",
    "fock.from_operator_ms": "ms",
    "fock.pdms_from_rho_ms": "ms",
    "fock.from_operator_cold_ms": "ms",
    "quasifree.build_quasifree_ms": "ms",
    "quasifree.verify_quasifree_ms": "ms",
    "quasifree.generator_words_ms": "ms",
    "serialize.load_ms": "ms",
    "serialize.write_ms": "ms",
    "cli.self_ms": "ms",
    "import.grdm_ms": "ms",
    "trace.op_ms": "ms",
    "trace.overhead_ms": "ms",
    "algebra.star_memo_entries": "count",
    "algebra.star_memo_misses": "count",
    "algebra.star_memo_hit_ratio": "1",
    "fock.kappa_terms": "count",
    "quasifree.kappa_terms": "count",
    "quasifree.words_checked": "count",
    "conditions.t1_form_dim": "count",
    "conditions.t2_form_dim": "count",
    "conditions.realization_gap_max": "1",
    "latency_raw_p50_ms": "ms",
    "host.speed_factor": "1",
    "host.threads": "count",
    "host.cpu_wall_ratio": "1",
}


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


def layer_metric(span: str) -> str:
    return SPAN_GROUPS.get(span, span) + "_ms"


def factor(rec: dict) -> float:
    return hostref.speed_factor(*rec["ref_ms"])


def normalised_ms(rec: dict) -> float:
    return hostref.normalise(rec["wall_ms"], factor(rec))


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **BLAS_THREADS)
    env.pop("GRDM_THREADS", None)
    return env


def environment_block() -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(spec: dict, workdir: str, idx: int) -> dict:
    spec_path = os.path.join(workdir, f"spec{idx}.json")
    result_path = os.path.join(workdir, f"result{idx}.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
                              cwd=ROOT, env=worker_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {idx} timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {idx} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(result["grdm_file"]).startswith(src + os.sep):
        raise BenchError(f"worker imported grdm from {result['grdm_file']}, not from {src}")
    return result


def end_to_end_metrics(setups: list[dict], loop: dict) -> tuple[dict, dict]:
    ops = loop["ops"]
    norm = [normalised_ms(r) for r in ops]
    cut = p90(norm)
    metrics = {
        "latency_p50_ms": statistics.median(norm),
        "latency_p90_ms": cut,
        "setup_s": statistics.median(hostref.normalise(s["setup_ms"], factor(s)) for s in setups) / 1e3,
        "peak_rss_mb": loop["peak_rss_mb"],
    }
    detail = {
        "samples": len(norm),
        "p90_beyond": sum(1 for v in norm if v > cut),
        "setup_raw_s": statistics.median(s["setup_ms"] for s in setups) / 1e3,
        "setup_speed_factor": statistics.median(factor(s) for s in setups),
    }
    detail.update(host_figures(ops))
    return metrics, detail


def host_figures(ops: list[dict]) -> dict:
    """Raw medians and the guard figures: a busy extra thread shows in threads and cpu/wall."""
    return {
        "latency_raw_p50_ms": statistics.median(r["wall_ms"] for r in ops),
        "host.speed_factor": statistics.median(factor(r) for r in ops),
        "host.threads": max(r["threads"] for r in ops),
        "host.cpu_wall_ratio": sum(r["cpu_ms"] for r in ops) / sum(r["wall_ms"] for r in ops),
    }


def per_layer_metrics(workload: str, setups: list[dict], loop: dict) -> tuple[dict, dict]:
    traced = [r for r in loop["ops"] if r["traced"] and "self_ns" in r]
    plain = [r for r in loop["ops"] if not r["traced"]]
    metrics = {name: 0.0 for name in PER_LAYER}
    if not traced:  # every replay crashed; the errors make the run incorrect
        return metrics, {"traced_samples": 0}
    layers: dict[str, float] = {}
    for rec in traced:
        f = factor(rec)
        for span, ns in rec["self_ns"].items():
            name = "cli.self_ms" if span == "cli" else layer_metric(span)
            if name not in metrics:
                raise BenchError(f"span {span!r} has no per-layer metric")
            layers[name] = layers.get(name, 0.0) + hostref.normalise(ns / 1e6, f) / len(traced)
    metrics.update(layers)
    metrics["trace.op_ms"] = statistics.fmean(hostref.normalise(r["traced_ns"] / 1e6, factor(r))
                                              for r in traced)
    # the loop runs each op untraced and then traced on the same input
    ops = loop["ops"]
    metrics["trace.overhead_ms"] = statistics.median(normalised_ms(t) - normalised_ms(u)
                                                     for u, t in zip(ops[0::2], ops[1::2]))
    metrics["import.grdm_ms"] = statistics.median(hostref.normalise(s["import_ms"], factor(s)) for s in setups)
    cold = [hostref.normalise(s["cold"]["self_ns"].get("fock.from_operator", 0) / 1e6, factor(s["cold"]))
            for s in setups if "self_ns" in s["cold"]]
    metrics["fock.from_operator_cold_ms"] = statistics.median(cold) if cold else 0.0
    metrics.update(traced[0]["counts"])
    if any("memo" in r for r in traced):
        hits = sum(r["memo"]["hits"] for r in traced)
        misses = sum(r["memo"]["misses"] for r in traced)
        metrics["algebra.star_memo_entries"] = statistics.median(r["memo"]["entries"] for r in traced)
        metrics["algebra.star_memo_misses"] = misses / len(traced)
        metrics["algebra.star_memo_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    else:
        for name in ("algebra.star_memo_entries", "algebra.star_memo_misses", "algebra.star_memo_hit_ratio"):
            del metrics[name]
    metrics["conditions.realization_gap_max"] = max((r.get("realization_gap", 0.0) for r in traced),
                                                    default=0.0)
    metrics.update(host_figures(plain))
    detail = {
        "traced_samples": len(traced),
        "untraced_samples": len(plain),
        "layer_sum_ms": sum(layers.values()),
        "expected_counts": EXPECTED_COUNTS[workload],
    }
    return metrics, detail


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    workdir = os.path.join(HERE, ".work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        WORKLOADS[workload](workdir, seed).prepare()
        spec = {"workload": workload, "workdir": workdir, "seed": seed,
                "seconds": seconds, "trace": trace, "loop": False}
        results = [run_worker(spec, workdir, i) for i in range(SETUP_PROCESSES - 1)]
        results.append(run_worker(dict(spec, loop=True), workdir, SETUP_PROCESSES - 1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    setups = [r["setup"] for r in results]
    loop = results[-1]
    judged = [s["cold"] for s in setups] + loop["ops"]
    errors = [r["error"] for r in judged if r["error"]]
    if trace:
        metrics, detail = per_layer_metrics(workload, setups, loop)
        units = PER_LAYER
    else:
        metrics, detail = end_to_end_metrics(setups, loop)
        units = END_TO_END
    detail.update({"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                   "errors": errors[:5], "environment": environment_block()})
    return {
        "detail": detail,
        "result": {
            "correct": not errors,
            "attempted": len(judged),
            "failed": len(errors),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and waited for
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "grdm", "cli.py")):
        print(f"error: no grdm sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    m = out["result"]["metrics"]
    for name, item in m.items():
        print(f"{args.workload}/{name} = {item['value']:.6g} {item['unit']}")
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
