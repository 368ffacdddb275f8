#!/usr/bin/env python3
"""Recovery statistics for quasifree construction across occupation spectra.

Samples random one-body matrices with eigenvalues drawn from progressively
wider windows (approaching the projector boundary), rebuilds the quasifree
density, and reports worst-case one-body recovery, two-body agreement with
the Wick closed form (`wick_pdms`) and Wick-factorization deviations, with
the median wall time of `build_quasifree` and of `verify_quasifree` per
window.  The word map is built before the table, so `verify ms` is the warm
verify.  Bad arguments exit 2 before the table header prints.
"""

import argparse
import statistics
import sys
import time

import numpy as np

from grdm.conditions import pdm1_from_density, pdm2_from_density
from grdm.quasifree import (QUASIFREE_CAP, build_quasifree, verify_quasifree, wick_pdms,
                            words_checked)


def random_unitary(rng, m):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-points", type=int, default=4)
    args = parser.parse_args()
    if not 1 <= args.m <= QUASIFREE_CAP:
        parser.error(f"--m must lie in [1, {QUASIFREE_CAP}], got {args.m}")
    if args.samples < 1:
        parser.error(f"--samples must be >= 1, got {args.samples}")
    if args.max_points < 1:
        parser.error(f"--max-points must be >= 1, got {args.max_points}")

    rng = np.random.default_rng(args.seed)
    windows = [(0.2, 0.8), (0.05, 0.95), (1e-3, 1 - 1e-3), (1e-8, 1 - 1e-8)]
    words_checked(args.m, args.max_points)  # builds the cached word map
    print(f"{'window':>22} {'pdm1 dev':>12} {'pdm2 dev':>12} {'wick dev':>12}"
          f" {'build ms':>10} {'verify ms':>10}")
    for lo, hi in windows:
        pdm_worst = 0.0
        pdm2_worst = 0.0
        wick_worst = 0.0
        build_ms, verify_ms = [], []
        for _ in range(args.samples):
            v = random_unitary(rng, args.m)
            lam = rng.uniform(lo, hi, args.m)
            gamma = v @ np.diag(lam) @ v.conj().T
            t0 = time.perf_counter()
            spec, kappa = build_quasifree(gamma)
            t1 = time.perf_counter()
            wick_dev = verify_quasifree(kappa, spec, args.max_points)
            t2 = time.perf_counter()
            build_ms.append(1e3 * (t1 - t0))
            verify_ms.append(1e3 * (t2 - t1))
            pdm_worst = max(pdm_worst, float(np.max(np.abs(pdm1_from_density(kappa) - gamma))))
            pdm2_dev = np.max(np.abs(pdm2_from_density(kappa) - wick_pdms(gamma)[1]))
            pdm2_worst = max(pdm2_worst, float(pdm2_dev))
            wick_worst = max(wick_worst, wick_dev)
        print(f"[{lo:9.1e}, {hi:9.7f}] {pdm_worst:>12.3e} {pdm2_worst:>12.3e} {wick_worst:>12.3e}"
              f" {statistics.median(build_ms):>10.3f} {statistics.median(verify_ms):>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
