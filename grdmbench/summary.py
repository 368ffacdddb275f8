"""Summarise one or two sets of recorded benchmark runs; reports only, never gates.

    python3 grdmbench/summary.py SET_A [SET_B]

A set is a directory of files, each holding the standard output of one
`run.py` invocation.  For every workload and metric the tool prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread, the
distance between the quartiles as a share of the median.  An end-to-end
metric whose spread exceeds its bound in BENCHMARK.json is marked
UNRESOLVED.  Beside them it prints each set's median raw wall-clock p50 and
median host-speed factor, so the effect of the normalisation is visible.
With two sets it also prints the change of each median from A to B and
marks a change worse than the bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# figures from the detail line that show what the normalisation removed
HOST_FIGURES = ("latency_raw_p50_ms", "host.speed_factor", "setup_raw_s", "setup_speed_factor")


def load_set(directory: str) -> dict:
    """{(workload, trace): [(metrics, detail), ...]} of every run file in a directory."""
    runs: dict = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.startswith("{")]
        if len(lines) < 2:
            print(f"skipped {path}: no result", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault((detail["workload"], detail["trace"]), []).append((metrics, detail))
    return runs


def stats(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread (quartile distance over median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def bounds() -> dict:
    try:
        with open(BENCHMARK_JSON) as fh:
            spec = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def report(sets: list[dict]) -> None:
    bound = bounds()
    keys = sorted({k for s in sets for k in s})
    for workload, trace in keys:
        print(f"\n== {workload} ({'traced' if trace else 'untraced'}) ==")
        names = sorted({n for s in sets for m, _ in s.get((workload, trace), []) for n in m})
        rows = [(n, "metrics") for n in names]
        if not trace:
            rows += [(n, "detail") for n in HOST_FIGURES]
        print(f"{'metric':36s} set {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}  note")
        for name, where in rows:
            medians = []
            for label, s in zip("AB", sets):
                runs = s.get((workload, trace), [])
                values = [(m if where == "metrics" else d).get(name) for m, d in runs]
                values = [v for v in values if isinstance(v, (int, float))]
                if not values:
                    continue
                med, q1, q3, spread = stats(values)
                medians.append(med)
                note = ""
                b = bound.get(name, {}).get("bound") if where == "metrics" and not trace else None
                if b is not None and spread > b:
                    note = f"UNRESOLVED (spread above bound {b})"
                if label == "B" and len(medians) == 2 and medians[0]:
                    change = (medians[1] - medians[0]) / medians[0]
                    note += f" change {change:+.1%}"
                    better = bound.get(name, {}).get("better", "lower")
                    worse = change if better == "lower" else -change
                    if b is not None and worse > b:
                        note += f" WORSE than bound {b}"
                print(f"{name:36s} {label:>3s} {len(values):3d} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{spread:7.1%}  {note.strip()}")


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    report([load_set(d) for d in argv])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
