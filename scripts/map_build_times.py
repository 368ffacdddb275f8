#!/usr/bin/env python3
"""Cold build times of grdm's cached linear maps, one fresh process per build.

For each requested m this times, each in its own subprocess so that no cache
is warm: the moment map `kernel._moment_map`, the five table forms
`conditions._probe_set_map` (on a moment map built untimed first), the five
closed-form index maps `closed._index_map` (rows closed-P .. closed-T2),
the quasifree word map `quasifree._star_word_map(m, 4)` (m <= QUASIFREE_CAP)
and the Fock operator-to-element map `fock._element_map` (m <= FOCK_CAP).
Prints the median over the repeats in milliseconds, one row per build and
one column per m, and `-` where m is past the build's cap: the element-side
builds (the moment map and the five table forms) stop at ELEMENT_CAP, while
the closed-form maps run up to m = 16, where `grdm check` runs.  A cold
`grdm check` builds the five closed-form maps; a cold `grdm fuzz` builds the
moment map, the five table forms and the element map.

    python scripts/map_build_times.py --m 5 8 12 16 --repeats 5
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

from grdm.limits import ELEMENT_CAP, FOCK_CAP, QUASIFREE_CAP

TABLE = ("P", "Q", "G", "T1", "T2")
BUILDS = ("moment", *TABLE, *(f"closed-{name}" for name in TABLE), "words@4", "element")
CAPS = {"moment": ELEMENT_CAP, **dict.fromkeys(TABLE, ELEMENT_CAP),
        "words@4": QUASIFREE_CAP, "element": FOCK_CAP}
M_MAX = 16


def build(name: str, m: int) -> float:
    """Milliseconds of one cold build in this process."""
    from grdm import closed, conditions, fock, kernel, quasifree

    if name in TABLE:
        kernel._moment_map(m)
        run = lambda: conditions._probe_set_map(name, m)  # noqa: E731
    elif name.startswith("closed-"):
        run = lambda: closed._index_map(name.removeprefix("closed-"), m)  # noqa: E731
    else:
        run = {"moment": lambda: kernel._moment_map(m),
               "words@4": lambda: quasifree._star_word_map(m, 4),
               "element": lambda: fock._element_map(m)}[name]
    start = time.perf_counter()
    run()
    return (time.perf_counter() - start) * 1e3


def child_time(name: str, m: int) -> float:
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", name, str(m)],
                         check=True, capture_output=True, text=True).stdout
    return float(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--m", type=int, nargs="+", default=[5, 6, 7, 8])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        name, m = args.child
        print(build(name, int(m)))
        return 0
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")
    if not all(1 <= m <= M_MAX for m in args.m):
        parser.error(f"--m values must lie in [1, {M_MAX}], got {args.m}")

    print(f"{'build (ms)':<10}" + "".join(f"{f'm={m}':>10}" for m in args.m))
    for name in BUILDS:
        cells = []
        for m in args.m:
            if m > CAPS.get(name, m):
                cells.append("-")
                continue
            times = [child_time(name, m) for _ in range(args.repeats)]
            cells.append(f"{statistics.median(times):.2f}")
        print(f"{name:<10}" + "".join(f"{c:>10}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
