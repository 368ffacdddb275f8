"""One benchmark worker process: set-up, then optionally the closed loop.

    python3 worker.py SPEC_JSON RESULT_JSON

The spec names the workload, work directory, seed, whether to run the loop
and for how long, and whether the loop is traced.  The worker is a single
thread.  Set-up is `from grdm import cli` plus the first, cold op, with the
host-speed reference timed right before the import and right after the cold
op.  Each loop op is bracketed by reference timings the same way.  A traced
loop alternates an untraced op with the traced replay of the same op, so the
difference between them is the tracing overhead.  Results go to RESULT_JSON.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time

import hostref
from tracing import Tracer, self_times_by_name
from workloads import EXPECTED_COUNTS, REALIZATION_GAP_TOL, WORKLOADS


def thread_count() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


class Worker:
    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.workload = WORKLOADS[spec["workload"]](spec["workdir"], spec["seed"])
        self.ops: list[dict] = []
        self.cli = None

    def _timed(self, fn) -> dict:
        """Run fn() between two reference timings; the op's record without its outcome."""
        r0 = hostref.time_reference()
        c0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        try:
            value, error = fn(), None
        except Exception as exc:  # a crashing op is a failed op, the loop goes on
            value, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        c1 = time.process_time_ns()
        r1 = hostref.time_reference()
        return {"wall_ms": (t1 - t0) / 1e6, "cpu_ms": (c1 - c0) / 1e6, "ref_ms": [r0, r1],
                "threads": thread_count(), "value": value, "error": error}

    def untraced_op(self, op: int) -> dict:
        rec = self._timed(lambda: self.cli.main(self.workload.argv(op)))
        rc = rec.pop("value")
        rec["traced"] = False
        rec["error"] = rec["error"] or self.workload.judge(op, rc)
        return rec

    def traced_op(self, op: int) -> dict:
        tracer = Tracer()

        def replay():
            with tracer.span("cli"):
                return self.workload.replay(tracer, op)

        memo = star_memo()
        before = memo.cache_info() if memo else None
        rec = self._timed(replay)
        after = memo.cache_info() if memo else None
        value = rec.pop("value")
        rec["traced"] = True
        if value is None:
            return rec
        rc, counts, extra = value
        rec["error"] = self.workload.judge(op, rc)
        if hasattr(self.workload, "after_replay"):
            more, gap = self.workload.after_replay(extra)
            counts.update(more)
            rec["realization_gap"] = gap
            if not gap <= REALIZATION_GAP_TOL and rec["error"] is None:
                rec["error"] = f"realization gap {gap:.3e} above {REALIZATION_GAP_TOL:.0e}"
        rec["counts"] = counts
        want = EXPECTED_COUNTS[self.workload.name]
        if counts != want and rec["error"] is None:
            rec["error"] = f"work-size counts {counts}, expected {want}"
        rec["self_ns"] = self_times_by_name(tracer.spans)
        root = tracer.spans[0]
        rec["traced_ns"] = root.end_ns - root.start_ns
        if sum(rec["self_ns"].values()) != rec["traced_ns"] and rec["error"] is None:
            rec["error"] = "span self times do not add up to the op time"
        if memo:
            rec["memo"] = {"entries": after.currsize, "hits": after.hits - before.hits,
                           "misses": after.misses - before.misses}
        return rec

    def setup(self) -> dict:
        """Import plus the cold first op, with the references before the import and
        after the op."""
        hostref.time_reference()  # first call pays numpy's own lazy set-up
        r0 = hostref.time_reference()
        t0 = time.perf_counter_ns()
        from grdm import cli
        import_ms = (time.perf_counter_ns() - t0) / 1e6
        self.cli = cli
        cold = self.traced_op(0) if self.spec["trace"] else self.untraced_op(0)
        return {"setup_ms": import_ms + cold["wall_ms"], "import_ms": import_ms,
                "ref_ms": [r0, cold["ref_ms"][1]], "cold": cold}

    def loop(self) -> None:
        deadline = time.perf_counter() + self.spec["seconds"]
        op = 1
        while time.perf_counter() < deadline:
            self.ops.append(self.untraced_op(op))
            if self.spec["trace"]:
                self.ops.append(self.traced_op(op))
            op += 1

    def run(self) -> dict:
        out = {"setup": self.setup()}
        if self.spec["loop"]:
            self.loop()
        out["ops"] = self.ops
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["grdm_file"] = self.cli.__file__
        return out


def star_memo():
    """The monomial star-product memo, when grdm has one."""
    from grdm import algebra

    memo = getattr(algebra, "_star_monomials_terms", None)
    return memo if hasattr(memo, "cache_info") else None


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = Worker(spec).run()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
