#!/usr/bin/env python3
"""Sweep the condition battery over mode counts and particle sectors.

Prints a table of worst margins per condition; any failure on a genuine
density indicates a sign-convention bug and exits 1.  Bad arguments exit 2
before any job runs.
"""

import argparse
import sys

from grdm.conditions import fuzz_conditions
from grdm.limits import FOCK_CAP


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-m", type=int, default=4)
    args = parser.parse_args()
    if args.trials < 1:
        parser.error(f"--trials must be >= 1, got {args.trials}")
    if not 2 <= args.max_m <= FOCK_CAP:
        parser.error(f"--max-m must lie in [2, {FOCK_CAP}], got {args.max_m}")

    jobs = [(m, None) for m in range(2, args.max_m + 1)]
    jobs += [(m, n) for m in range(3, args.max_m + 1) for n in range(2, m)]

    any_fail = False
    header = f"{'m':>2} {'sector':>6} {'pdm dev':>10} {'contr dev':>10}  worst margins"
    print(header)
    print("-" * len(header))
    for m, sector in jobs:
        summary = fuzz_conditions(m, args.trials, args.seed, sector=sector)
        margins = "  ".join(f"{k}={v:+.1e}" for k, v in summary.worst_margins.items())
        sec = "-" if sector is None else str(sector)
        print(f"{m:>2} {sec:>6} {summary.pdm_max_dev:>10.2e} "
              f"{summary.contraction_max_dev:>10.2e}  {margins}")
        any_fail |= not summary.all_pass
    if any_fail:
        print("FAILURES observed on genuine densities", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
