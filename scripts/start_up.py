#!/usr/bin/env python3
"""Start-up cost of each grdm command, in fresh processes without a bytecode cache.

For `check` (on an m = 5 gamma/Gamma pair), `fuzz --m 5 --trials 1`,
`quasifree` (on an m = 4 gamma) and `selftest`, this runs each command in
`--runs` fresh interpreters, the commands taking turns.  Every child runs on
a copy of the grdm source with no __pycache__ and under
PYTHONDONTWRITEBYTECODE=1, so it compiles each grdm module it imports from
source, as a process on a fresh checkout does.  A child imports numpy, then
times `from grdm import cli`, the first, cold `cli.main` call and a second,
warm one on the same argv; cold less warm is what only a process's first op
pays, its compiles, map builds and first LAPACK calls.  Prints, per
command, the median import, cold-op and warm-op milliseconds, the source
size and the code lines of the grdm modules it loaded (lines that hold a
statement's code: no blank, comment or docstring line), since compile time
follows code rather than bytes, and their names; then, per command, the
standard library modules (top-level, public names) that the command loaded
beyond the interpreter's start and `import numpy`.  The script imports only
`sys` at the top and everything else inside its functions, so a child holds
none of the script's own imports when it counts.

    python scripts/start_up.py --runs 15
"""

import sys

COMMANDS = {
    "check": ["check", "--in", "{dir}/pair.json", "--out", "{dir}/report.json"],
    "fuzz": ["fuzz", "--m", "5", "--trials", "1", "--out", "{dir}/summary.json"],
    "quasifree": ["quasifree", "--in", "{dir}/gamma.json", "--out", "{dir}/quasifree.json"],
    "selftest": ["selftest"],
}


def child(argv: list) -> int:
    """Print, as one JSON line, the import, cold-op and warm-op times here and the modules loaded."""
    import io
    import os
    import time

    import numpy  # noqa: F401  imported before the timed import, so it is not counted

    before = set(sys.modules)
    start = time.perf_counter()
    from grdm import cli
    imported = time.perf_counter()
    sys.stdout, stdout = io.StringIO(), sys.stdout
    try:
        rc = cli.main(argv)
        done = time.perf_counter()
        loaded = set(sys.modules) - before
        warm_rc = cli.main(argv)
        warm = time.perf_counter()
    finally:
        sys.stdout = stdout
    modules = sorted(name for name in loaded if name.split(".")[0] == "grdm")
    size = sum(os.path.getsize(sys.modules[name].__file__) for name in modules)
    stdlib = sorted({name.split(".")[0] for name in loaded if not name.startswith("_")
                     and name.split(".")[0] in sys.stdlib_module_names})
    import json

    print(json.dumps({"rc": rc or warm_rc, "import_ms": (imported - start) * 1e3,
                      "op_ms": (done - imported) * 1e3, "warm_ms": (warm - done) * 1e3,
                      "modules": modules, "kb": size / 1024,
                      "lines": sum(code_lines(sys.modules[name].__file__) for name in modules),
                      "stdlib": stdlib}))
    return 0


def code_lines(path: str) -> int:
    """The lines of the Python file at `path` that hold code: no blank, comment or docstring line."""
    import ast
    import io
    import tokenize

    with open(path, "rb") as fh:
        text = fh.read()
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENCODING, tokenize.ENDMARKER}
    lines = {line for tok in tokenize.tokenize(io.BytesIO(text).readline) if tok.type not in layout
             for line in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def write_inputs(workdir: str) -> None:
    """The m = 5 pair of a random density and a generic m = 4 gamma, as the commands read them."""
    import os

    import numpy as np

    from grdm import fock, serialize

    gamma, Gamma = fock.pdms_from_rho(fock.random_density(5, 7))
    serialize.atomic_write_json(os.path.join(workdir, "pair.json"), {
        "gamma": serialize.matrix_to_dict(gamma, "gamma", 5),
        "Gamma": serialize.matrix_to_dict(Gamma, "Gamma", 5)})
    serialize.atomic_write_json(os.path.join(workdir, "gamma.json"), serialize.matrix_to_dict(
        np.diag([0.2, 0.4, 0.6, 0.8]), "gamma", 4))


def run_child(argv: list, source: str) -> dict:
    """`child(argv)` in a fresh interpreter on the grdm copy at `source`, with no bytecode cache."""
    import json
    import os
    import subprocess

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        p for p in (source, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", *argv],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main() -> int:
    import argparse
    import os
    import shutil
    import statistics
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=15)
    args = parser.parse_args()
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")

    import grdm

    with tempfile.TemporaryDirectory() as workdir:
        source = os.path.join(workdir, "src")
        shutil.copytree(os.path.dirname(os.path.abspath(grdm.__file__)),
                        os.path.join(source, "grdm"), ignore=shutil.ignore_patterns("__pycache__"))
        write_inputs(workdir)
        results = {name: [] for name in COMMANDS}
        for _ in range(args.runs):
            for name, argv in COMMANDS.items():
                result = run_child([a.format(dir=workdir) for a in argv], source)
                if result["rc"] != 0:
                    print(f"{name} exited {result['rc']}", file=sys.stderr)
                    return 1
                results[name].append(result)

    print(f"{'command':<10}{'import ms':>10}{'cold op ms':>12}{'warm op ms':>12}{'source KB':>11}"
          f"{'code lines':>12}  grdm modules")
    for name, runs in results.items():
        modules = runs[0]["modules"]
        print(f"{name:<10}{statistics.median(r['import_ms'] for r in runs):>10.1f}"
              f"{statistics.median(r['op_ms'] for r in runs):>12.1f}"
              f"{statistics.median(r['warm_ms'] for r in runs):>12.1f}{runs[0]['kb']:>11.1f}"
              f"{runs[0]['lines']:>12}  " + " ".join(m.removeprefix("grdm.") for m in modules))
    print(f"\n{'command':<10}stdlib modules beyond numpy")
    for name, runs in results.items():
        print(f"{name:<10}" + " ".join(runs[0]["stdlib"]))
    return 0


if __name__ == "__main__":
    sys.exit(child(sys.argv[2:]) if sys.argv[1:2] == ["--child"] else main())
