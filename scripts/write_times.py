#!/usr/bin/env python3
"""Time `grdm quasifree`'s element writer against json's indent-2 encoder.

Every other output file is `json.dumps` with `indent` 2 itself; only the
`grdm quasifree` payload holds an element, which its writer
(`quasifree._dumps`) renders straight from κ's arrays.  For a generic
quasifree κ at each requested m, this times that writer on the payload as
the command builds it (κ itself) and `element_to_dict` plus `json.dumps`
with `indent` 2.  It exits 1 unless both give the same bytes, and prints
the median milliseconds over the repeats, one row per payload.

    python scripts/write_times.py --m 4 6 8 --repeats 5
"""

import argparse
import json
import statistics
import sys
import time

import numpy as np

from grdm import quasifree, serialize
from grdm.limits import QUASIFREE_CAP


def payloads(ms):
    """(name, kappa term count, payload as `grdm quasifree` builds it, a builder of its dict form)."""
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
        dumps_ms, got = median_ms(lambda: quasifree._dumps(payload), args.repeats)
        if got != want:
            sys.exit(f"{name}: quasifree._dumps differs from json.dumps with indent 2")
        print(f"{name:<14}{terms:>7}{json_ms:>12.3f}{dumps_ms:>12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
