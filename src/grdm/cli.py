"""Command-line front end: condition checks, fuzz campaigns, quasifree
construction, and the sign-convention selftest.

Exit codes: 0 all checks pass, 1 a condition failed, 2 usage or input error.
Output files are written atomically.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time
from itertools import product

import numpy as np

from . import conditions as cond
from . import fock, quasifree, serialize
from .algebra import (
    GrassmannElement,
    Monomial,
    involution,
    monomial_element,
    multiply,
    pair_integral_closed_form,
    psi,
    psibar,
    raw_integral,
    star,
    star_monomials,
    star_trace,
    trace_integral,
    trace_weight,
    unit,
)


def _load_check_input(path: str):
    data = serialize.load_json(path)
    if not isinstance(data, dict):
        raise serialize.FormatError("top-level JSON value is not an object")
    if "gamma" in data:
        gamma, _, m = serialize.matrix_from_dict(data["gamma"], "gamma")
        Gamma = None
        if "Gamma" in data:
            Gamma, _, m2 = serialize.matrix_from_dict(data["Gamma"], "Gamma")
            if m2 != m:
                raise serialize.FormatError(f"field 'Gamma' has m = {m2}, gamma has m = {m}")
        return gamma, Gamma, m
    gamma, _, m = serialize.matrix_from_dict(data, "gamma")
    return gamma, None, m


def cmd_check(args) -> int:
    if args.tol is not None and not 0 <= args.tol < np.inf:
        print(f"error: --tol must be finite and >= 0, got {args.tol}", file=sys.stderr)
        return 2
    try:
        gamma, Gamma, m = _load_check_input(args.infile)
    except (OSError, serialize.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        reports = cond.condition_battery(gamma, Gamma)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.tol is not None:
        reports = [cond.ConditionReport(r.condition, r.margin, r.margin >= -args.tol,
                                        args.tol, r.method) for r in reports]
    payload = [r.as_dict() for r in reports]
    if args.outfile:
        serialize.atomic_write_json(args.outfile, payload)
    if args.verbose or not args.outfile:
        for r in reports:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.condition:<12} "
                  f"margin {r.margin:+.3e} (tol {r.tol:.1e}, {r.method})")
    return 0 if all(r.passed for r in reports) else 1


def cmd_fuzz(args) -> int:
    try:
        summary = cond.fuzz_conditions(args.m, args.trials, args.seed, sector=args.sector)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.outfile:
        serialize.atomic_write_json(args.outfile, summary.as_dict())
    if args.verbose or not args.outfile:
        print(f"fuzz m={summary.m} trials={summary.trials} seed={summary.seed} "
              f"sector={summary.sector}")
        print(f"  pdm max deviation: {summary.pdm_max_dev:.3e}")
        if summary.sector is not None and summary.sector >= 2:
            print(f"  contraction max deviation: {summary.contraction_max_dev:.3e}")
        for name, margin in summary.worst_margins.items():
            print(f"  worst {name:<12} margin {margin:+.3e}")
        print(f"  failures: {summary.failures}")
    return 0 if summary.all_pass else 1


def cmd_quasifree(args) -> int:
    try:
        data = serialize.load_json(args.infile)
        gamma, _, m = serialize.matrix_from_dict(data, "gamma")
    except (OSError, serialize.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        spec, kappa = quasifree.build_quasifree(gamma)
        pdm_dev = float(np.max(np.abs(cond.pdm1_from_density(kappa) - gamma)))
        wick_dev = quasifree.verify_quasifree(kappa, spec, max_points=args.max_points)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    points = quasifree.words_checked(m, args.max_points)
    payload = {
        "element": serialize.element_to_dict(kappa),
        "report": {
            "pdm1_max_dev": pdm_dev,
            "wick_max_dev": wick_dev,
            "points_checked": points,
        },
    }
    if args.outfile:
        serialize.atomic_write_json(args.outfile, payload)
    if args.verbose or not args.outfile:
        print(f"quasifree m={m}: pdm1_max_dev {pdm_dev:.3e}, "
              f"wick_max_dev {wick_dev:.3e} over {points} words")
    return 0


def _selftest_identities(flip: int, rng: random.Random):
    """Yield (name, worst deviation, tolerance) for the pinned identities."""

    def random_element(m, nterms=6):
        terms = {}
        for _ in range(nterms):
            key = Monomial(rng.randrange(1 << m), rng.randrange(1 << m))
            terms[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return GrassmannElement(m, terms)

    # trace anchors: closed form vs definition path vs oracle, all diagonal monomials
    worst = 0.0
    for m in range(1, 5):
        weight = trace_weight(m)
        for mask in range(1 << m):
            el = monomial_element(Monomial(mask, mask), m)
            k = mask.bit_count()
            want = (-1 if (k * (k - 1) // 2) & 1 else 1) * 2 ** (m - k)
            via_def = (-1) ** m * flip * raw_integral(multiply(el, weight))
            oracle = np.trace(fock.to_operator(el))
            worst = max(worst, abs(trace_integral(el) - want),
                        abs(via_def - want), abs(oracle - want))
    yield "trace-anchor", worst, 1e-12

    worst = 0.0
    for m in (1, 2):
        for I, J, K, L in product(range(1 << m), repeat=4):
            a, b = Monomial(I, J), Monomial(K, L)
            worst = max(worst, abs(pair_integral_closed_form(a, b, m)
                                   - trace_integral(star_monomials(a, b, m))))
    for m in (3, 4):
        for _ in range(200):
            a = Monomial(rng.randrange(1 << m), rng.randrange(1 << m))
            b = Monomial(rng.randrange(1 << m), rng.randrange(1 << m))
            worst = max(worst, abs(pair_integral_closed_form(a, b, m)
                                   - trace_integral(star_monomials(a, b, m))))
    yield "pair-integral", worst, 1e-12

    worst = 0.0
    for m in range(1, 5):
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                zero_dev = (star(psi(i, m), psi(j, m)) + star(psi(j, m), psi(i, m))).norm_max()
                worst = max(worst, zero_dev)
                zero_dev = (star(psibar(i, m), psibar(j, m))
                            + star(psibar(j, m), psibar(i, m))).norm_max()
                worst = max(worst, zero_dev)
                anti = star(psibar(i, m), psi(j, m)) + star(psi(j, m), psibar(i, m))
                want = unit(m) if i == j else GrassmannElement(m, {})
                diff = anti - want
                worst = max(worst, diff.norm_max())
    yield "car", worst, 1e-12

    worst = 0.0
    for _ in range(50):
        a, b = random_element(3), random_element(3)
        worst = max(worst, abs(star_trace(a, b) - star_trace(b, a)))
    yield "cyclicity", worst, 1e-10

    worst = 0.0
    for m in (1, 2, 3, 4):
        for _ in range(25):
            eta = random_element(m)
            val = star_trace(involution(eta), eta)
            scale = 1.0 + sum(abs(c) ** 2 for c in eta.terms.values()) * 2 ** m
            worst = max(worst, max(0.0, -val.real) / scale, abs(val.imag) / scale)
    yield "positivity", worst, 1e-10

    worst = 0.0
    for _ in range(40):
        m = 4
        bars = rng.sample(range(1, m + 1), rng.randrange(0, m + 1))
        ubs = rng.sample(range(1, m + 1), rng.randrange(0, m + 1))
        gens = [psibar(i, m) for i in bars] + [psi(j, m) for j in ubs]
        if not gens:
            continue
        folded = gens[0]
        plain = gens[0]
        for g in gens[1:]:
            folded = star(folded, g)
            plain = multiply(plain, g)
        worst = max(worst, (folded - plain).norm_max())
    yield "splicing", worst, 1e-12


def cmd_selftest(args) -> int:
    flip = -1 if args.flip_sign else 1
    rng = random.Random(args.seed)
    start = time.time()
    failed = None
    for name, dev, tol in _selftest_identities(flip, rng):
        ok = dev <= tol
        if args.verbose or not ok:
            print(f"{'PASS' if ok else 'FAIL'} {name:<14} max deviation {dev:.3e} (tol {tol:.0e})")
        if not ok and failed is None:
            failed = name
    elapsed = time.time() - start
    if failed is not None:
        print(f"selftest FAILED at identity '{failed}' ({elapsed:.1f}s)")
        return 1
    print(f"selftest passed ({elapsed:.1f}s)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The grdm argument parser, built on first use and shared by every later `main` call."""
    parser = argparse.ArgumentParser(
        prog="grdm",
        description="Grassmann-integral toolkit for fermionic reduced density matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run representability checks on gamma/Gamma JSON")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--out", dest="outfile", metavar="PATH")
    p.add_argument("--tol", type=float, default=None, help="override the pass tolerance")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fuzz", help="condition battery on random genuine densities")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sector", type=int, default=None, help="restrict to an N-particle sector")
    p.add_argument("--out", dest="outfile", metavar="PATH")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("quasifree", help="build the quasifree density for a gamma JSON")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--out", dest="outfile", metavar="PATH")
    p.add_argument("--max-points", type=int, default=4, help="Wick verification word length")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_quasifree)

    p = sub.add_parser("selftest", help="run the pinned sign-convention identities")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--flip-sign", action="store_true",
                   help="debug: flip the integral sign convention (must fail)")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
