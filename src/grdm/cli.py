"""Command-line front end: parsing and dispatch of the four `grdm` commands, and their --out writer.

Exit codes: 0 all checks pass, 1 a condition failed, 2 usage or input error,
an --out path that cannot be written included.  The commands raise OSError or
ValueError (serialize.FormatError among them) on bad input, and `main` alone
prints it as `error: ...` and returns 2.  `cli` owns the one atomic writer,
`atomic_write`; each command's `run` hands its rendered text to `write_out`,
which names --out when the write fails.
`main` parses a plain argv itself (`_parse`): the command name, then that
command's options, each spelled in full with its value as a separate token.
Anything else, help and every usage error included, goes to argparse, which
is imported only then (`build_parser`), so a successful command loads neither
`argparse` nor the `gettext` and `locale` its messages pull in.  Each
command's body is the `run(args)` of the module it runs: check in `closed`,
fuzz in `conditions`, quasifree in `quasifree` and selftest in `selftest`.
`main` imports that one module on dispatch, so a process compiles only its
own command's code; `cli` itself imports only the standard library.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import types
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import argparse

_IN = ("--in", {"dest": "infile", "required": True, "metavar": "PATH"})
_OUT = ("--out", {"dest": "outfile", "metavar": "PATH"})
_VERBOSE = ("--verbose", {"action": "store_true"})

# Each command's module, whose `run(args)` is its body, its help line and
# its options, in the order `--help` lists them.
COMMANDS = {
    "check": ("closed", "run representability checks on gamma/Gamma JSON", (
        _IN, _OUT, ("--tol", {"type": float, "help": "override the pass tolerance"}), _VERBOSE)),
    "fuzz": ("conditions", "condition battery on random genuine densities", (
        ("--m", {"type": int, "required": True}), ("--trials", {"type": int, "default": 100}),
        ("--seed", {"type": int, "default": 0}),
        ("--sector", {"type": int, "help": "restrict to an N-particle sector"}), _OUT, _VERBOSE)),
    "quasifree": ("quasifree", "build the quasifree density for a gamma JSON", (
        _IN, _OUT, ("--max-points", {"type": int, "default": 4,
                                      "help": "Wick verification word length"}), _VERBOSE)),
    "selftest": ("selftest", "run the pinned sign-convention identities", (
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
    actions = {flag: (kwargs.get("dest", flag[2:].replace("-", "_")), kwargs)
               for flag, kwargs in COMMANDS[argv[0]][2]}
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
    return types.SimpleNamespace(command=argv[0], **values)


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
    for name, (_, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def atomic_write(path: str, text: str) -> None:
    """Write text and a newline to path through a temp file and a rename, mode 0666 & ~umask."""
    # abspath("") is the working directory, so an empty path's temp file would land in its parent
    folder = os.path.dirname(os.path.abspath(path)) if path else os.curdir
    tmp = os.path.join(folder, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_out(path: str, text: str) -> None:
    """`atomic_write` to the --out path; ValueError when it cannot be written, an empty path too."""
    try:
        atomic_write(path, text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    command = importlib.import_module(f".{COMMANDS[args.command][0]}", __package__)
    try:
        return command.run(args)
    except (OSError, ValueError) as exc:  # serialize.FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
