"""Command-line front end: condition checks, fuzz campaigns, quasifree
construction, and the sign-convention selftest.

Exit codes: 0 all checks pass, 1 a condition failed, 2 usage or input error,
an --out path that cannot be written included.  The commands raise OSError or
ValueError (serialize.FormatError among them) on bad input, and `main` alone
prints it as `error: ...` and returns 2.  Output files are written atomically.
`main` parses a plain argv itself (`_parse`): the command name, then that
command's options, each spelled in full with its value as a separate token.
Anything else, help and every usage error included, goes to argparse, which
is imported only then (`build_parser`), so a successful command loads neither
`argparse` nor the `gettext` and `locale` its messages pull in.  At module
level `cli` imports only `serialize`, which reads every input and writes
every output; each command imports the modules it runs inside its own
function.
"""

from __future__ import annotations

import functools
import random
import sys
import time
import types
from typing import TYPE_CHECKING

import numpy as np

from . import serialize

if TYPE_CHECKING:
    import argparse


def _load_check_input(path: str):
    """(gamma, Gamma or None, m) of a check or quasifree input.

    An object with `kind` and no `gamma` is a bare gamma matrix; any other
    object is a pair and needs `gamma`.
    """
    data = serialize.load_json(path)
    if not isinstance(data, dict) or ("kind" in data and "gamma" not in data):
        gamma, _, m = serialize.matrix_from_dict(data, "gamma")
        return gamma, None, m
    if "gamma" not in data:
        raise serialize.FormatError("missing field 'gamma' in pair")
    gamma, _, m = serialize.matrix_from_dict(data["gamma"], "gamma")
    Gamma = None
    if "Gamma" in data:
        Gamma, _, m2 = serialize.matrix_from_dict(data["Gamma"], "Gamma")
        if m2 != m:
            raise serialize.FormatError(f"field 'Gamma' has m = {m2}, gamma has m = {m}")
    return gamma, Gamma, m


def _write_out(path: str | None, payload) -> None:
    """Write `payload` to the --out path, if one is given; ValueError when it cannot be written."""
    if not path:
        return
    try:
        serialize.atomic_write_json(path, payload)
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


def cmd_check(args) -> int:
    from . import closed

    if args.tol is not None and not 0 <= args.tol < np.inf:
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    gamma, Gamma, _ = _load_check_input(args.infile)
    reports = closed.battery(gamma, Gamma)
    if args.tol is not None:
        reports = [r._replace(tol=args.tol) for r in reports]
    _write_out(args.outfile, [r.as_dict() for r in reports])
    if args.verbose or not args.outfile:
        for r in reports:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.condition:<12} "
                  f"margin {r.margin:+.3e} (tol {r.tol:.1e}, {r.method})")
    return 0 if all(r.passed for r in reports) else 1


def cmd_fuzz(args) -> int:
    from . import conditions as cond

    summary = cond.fuzz_conditions(args.m, args.trials, args.seed, sector=args.sector)
    _write_out(args.outfile, summary.as_dict())
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
    from . import quasifree
    from .kernel import _moments, _pdm1

    gamma, _, m = _load_check_input(args.infile)  # a pair's Gamma is not used
    spec, kappa = quasifree.build_quasifree(gamma)
    pdm_dev = float(np.max(np.abs(_pdm1(_moments(kappa.to_vector(), m), m) - gamma)))
    wick_dev = quasifree.verify_quasifree(kappa, spec, max_points=args.max_points)
    points = quasifree.words_checked(m, args.max_points)
    _write_out(args.outfile, {
        "element": kappa,
        "report": {
            "pdm1_max_dev": pdm_dev,
            "wick_max_dev": wick_dev,
            "points_checked": points,
        },
    })
    if args.verbose or not args.outfile:
        print(f"quasifree m={m}: pdm1_max_dev {pdm_dev:.3e}, "
              f"wick_max_dev {wick_dev:.3e} over {points} words")
    return 0


def cmd_selftest(args) -> int:
    from .selftest import identities

    rng = random.Random(args.seed)
    start = time.time()
    failed = None
    for name, dev, tol in identities(rng):
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


_IN = ("--in", {"dest": "infile", "required": True, "metavar": "PATH"})
_OUT = ("--out", {"dest": "outfile", "metavar": "PATH"})
_VERBOSE = ("--verbose", {"action": "store_true"})

# Each command's function, help line and options, in the order `--help` lists them.
COMMANDS = {
    "check": (cmd_check, "run representability checks on gamma/Gamma JSON", (
        _IN, _OUT, ("--tol", {"type": float, "help": "override the pass tolerance"}), _VERBOSE)),
    "fuzz": (cmd_fuzz, "condition battery on random genuine densities", (
        ("--m", {"type": int, "required": True}), ("--trials", {"type": int, "default": 100}),
        ("--seed", {"type": int, "default": 0}),
        ("--sector", {"type": int, "help": "restrict to an N-particle sector"}), _OUT, _VERBOSE)),
    "quasifree": (cmd_quasifree, "build the quasifree density for a gamma JSON", (
        _IN, _OUT, ("--max-points", {"type": int, "default": 4,
                                      "help": "Wick verification word length"}), _VERBOSE)),
    "selftest": (cmd_selftest, "run the pinned sign-convention identities", (
        ("--seed", {"type": int, "default": 0}), _VERBOSE)),
}


def _parse(argv):
    """The namespace argparse gives for a plain `argv`, or None for any other argv.

    Plain is the command name, then options of that command named in full,
    each store option followed by one value that does not start with `-`
    and converts by its `type`; the last of a repeated option counts, and
    every required option is there.  Everything else (help, abbreviations,
    `--opt=value`, negative numbers, `--`, bad values) is left to argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, options = COMMANDS[argv[0]]
    actions = {flag: (kwargs.get("dest", flag[2:].replace("-", "_")), kwargs)
               for flag, kwargs in options}
    values = {dest: kwargs.get("default", False if "action" in kwargs else None)
              for dest, kwargs in actions.values()}
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in actions:
            return None
        dest, kwargs = actions[token]
        if "action" in kwargs:  # store_true, as --verbose
            values[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            values[dest] = kwargs.get("type", str)(value)
        except (TypeError, ValueError):
            return None
    if any(kwargs.get("required") and values[dest] is None for dest, kwargs in actions.values()):
        return None
    return types.SimpleNamespace(command=argv[0], func=func, **values)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The grdm parser, with all four sub-parsers, built once per process.

    `main` calls it only for an argv that `_parse` declines, so a successful
    command never imports argparse.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="grdm",
        description="Grassmann-integral toolkit for fermionic reduced density matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # serialize.FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
