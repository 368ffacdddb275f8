#!/usr/bin/env python3
"""Time grdm's JSON writer against json's indent-2 encoder on the CLI payloads.

For each payload shape the CLI writes (the m = 5 `grdm check` report, the
m = 5 `grdm fuzz` summary, and the `grdm quasifree` payload with a generic
quasifree kappa at each requested m), this times `serialize.dumps` on the
payload as the CLI builds it (κ itself, written from its arrays) and
`element_to_dict` plus `json.dumps` with `indent` 2.  It exits 1 unless
both give the same bytes, and prints the median milliseconds over the
repeats, one row per payload.

    python scripts/write_times.py --m 4 6 8 --repeats 5
"""

import argparse
import json
import statistics
import sys
import time

import numpy as np

from grdm import serialize
from grdm.limits import QUASIFREE_CAP


def payloads(ms):
    """(name, kappa term count or None, payload as the CLI builds it, a builder of its dict form)."""
    from grdm import closed, conditions as cond, fock, quasifree

    gamma, Gamma = fock.pdms_from_rho(fock.random_density(5, 7))
    report = [r.as_dict() for r in closed.battery(gamma, Gamma)]
    yield "check-m5", None, report, lambda: report
    summary = cond.fuzz_conditions(5, 1, 7).as_dict()
    yield "fuzz-m5", None, summary, lambda: summary
    rng = np.random.default_rng(7)
    for m in ms:
        q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        _, kappa = quasifree.build_quasifree(q @ np.diag(rng.uniform(0.05, 0.95, m)) @ q.conj().T)
        report = {"pdm1_max_dev": 1.1e-16, "wick_max_dev": 2.2e-16, "points_checked": 2080}
        yield (f"quasifree-m{m}", kappa.arrays()[0].size, {"element": kappa, "report": report},
               lambda kappa=kappa, report=report: {"element": serialize.element_to_dict(kappa),
                                                   "report": report})


def median_ms(fn, repeats: int) -> tuple[float, str]:
    """Median milliseconds of `fn()` over the repeats, and its last output."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times), out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--m", type=int, nargs="+", default=[4, 6, 8],
                        help="quasifree kappa sizes")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")
    if not all(1 <= m <= QUASIFREE_CAP for m in args.m):
        parser.error(f"--m values must lie in [1, {QUASIFREE_CAP}], got {args.m}")
    print(f"{'payload':<14}{'terms':>7}{'json (ms)':>12}{'dumps (ms)':>12}")
    for name, terms, payload, as_dict in payloads(args.m):
        json_ms, want = median_ms(lambda: json.dumps(as_dict(), indent=2), args.repeats)
        dumps_ms, got = median_ms(lambda: serialize.dumps(payload), args.repeats)
        if got != want:
            sys.exit(f"{name}: serialize.dumps differs from json.dumps with indent 2")
        print(f"{name:<14}{'-' if terms is None else terms:>7}"
              f"{json_ms:>12.3f}{dumps_ms:>12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
