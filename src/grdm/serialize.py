"""JSON schemas for elements, matrices, and condition reports.

All artifacts are plain JSON so fixtures stay human-diffable; writes go
through `cli.atomic_write`, a temp file plus rename, so readers never observe
partial output.  Coefficients round-trip bit-exactly for binary64 values.

Every file is json's two-space indented output (`json.dumps` with `indent`
2) plus a newline.  check and quasifree share the reader of their input
(`_load_check_input`); each command renders its own --out text, quasifree
its element through `quasifree._dumps`, and `cli.write_out` writes it.

At module level this imports only the standard library, numpy and `cli`'s
writer, since matrices and reports need no element code; `element_to_dict`
imports the element kernel (`kernel`) when it runs.  No command reads an
element file, so the element reader with its field checks is a test
reference (`element_from_dict` in `tests/_reference.py`).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

import numpy as np

from .cli import atomic_write

if TYPE_CHECKING:
    from .kernel import GrassmannElement


class FormatError(ValueError):
    """Malformed input artifact; the message names the offending field."""


def _need(obj: dict, field: str, kinds, where: str):
    if field not in obj:
        raise FormatError(f"missing field '{field}' in {where}")
    val = obj[field]
    # JSON true/false load as bool, a subclass of int; no field here is boolean
    if isinstance(val, bool) or not isinstance(val, kinds):
        raise FormatError(f"field '{field}' in {where} has wrong type {type(val).__name__}")
    return val


def _need_m(obj: dict, where: str) -> int:
    m = _need(obj, "m", int, where)
    if m < 1:
        raise FormatError(f"field 'm' in {where} must be >= 1, got {m}")
    return m


def element_to_dict(a: GrassmannElement) -> dict:
    """Terms in ascending (bar, unbar) mask order, read from the element's sorted arrays."""
    from .kernel import _indices, _split_index

    index, coeffs = a.arrays()
    terms = []
    for bar, unbar, c in zip(*_split_index(index, a.m), coeffs.tolist()):
        terms.append({
            "bar": list(_indices(bar)),
            "unbar": list(_indices(unbar)),
            "re": c.real,
            "im": c.imag,
        })
    return {"m": a.m, "terms": terms}


def matrix_to_dict(mat: np.ndarray, kind: str, m: int) -> dict:
    mat = np.asarray(mat, dtype=complex)
    return {
        "kind": kind,
        "m": m,
        "dim": mat.shape[0],
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
    }


_NUMBER_TYPES = frozenset((int, float))
_EXPECTED_DIM = {
    "gamma": lambda m: m,
    "Gamma": lambda m: m * m,
}


def _number_array(rows: list, name: str, kind: str) -> np.ndarray:
    """A matrix field as a float array, its entries JSON numbers that binary64 holds.

    One type scan over the rows: json loads a number as int or float, so a
    string, null, a boolean (a bool is an int) or a nested array fails it.
    """
    found = {type(x) for row in rows for x in (row if type(row) is list else (row,))}
    if not found <= _NUMBER_TYPES:
        bad = ", ".join(sorted(t.__name__ for t in found - _NUMBER_TYPES))
        raise FormatError(f"field '{name}' of the {kind} matrix holds a non-numeric entry "
                          f"of type {bad}")
    try:
        return np.asarray(rows, dtype=float)
    except OverflowError as exc:  # an int past the float range
        raise FormatError(f"field '{name}' of the {kind} matrix holds a non-finite value: "
                          f"{exc}") from exc
    except ValueError as exc:  # rows of unequal length
        raise FormatError(f"field '{name}' is not a numeric matrix: {exc}") from exc


def matrix_from_dict(d: dict, expect_kind: str | None = None) -> tuple[np.ndarray, str, int]:
    """A matrix JSON object as (matrix, kind, m); errors name `expect_kind` as the field."""
    if not isinstance(d, dict):
        raise FormatError(f"field '{expect_kind or 'matrix'}' is not a matrix object: "
                          f"got {type(d).__name__}")
    kind = _need(d, "kind", str, "matrix")
    if kind not in _EXPECTED_DIM:
        raise FormatError(f"field 'kind' has unknown value {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise FormatError(f"field 'kind' is {kind!r}, expected {expect_kind!r}")
    m = _need_m(d, f"{kind} matrix")
    dim = _need(d, "dim", int, f"{kind} matrix")
    want = _EXPECTED_DIM[kind](m)
    if dim != want:
        raise FormatError(f"field 'dim' is {dim}, expected {want} for kind {kind!r} with m = {m}")
    rows = {name: _need(d, name, list, f"{kind} matrix") for name in ("re", "im")}
    parts = {name: _number_array(part, name, kind) for name, part in rows.items()}
    for name, part in parts.items():
        if part.shape != (dim, dim):
            raise FormatError(f"field '{name}' has shape {part.shape}, expected ({dim}, {dim})")
        if not np.isfinite(part).all():
            raise FormatError(f"field '{name}' of the {kind} matrix holds a non-finite value")
    return parts["re"] + 1j * parts["im"], kind, m


def atomic_write_json(path: str, obj) -> None:
    """json's indent-2 text of obj, written by `cli.atomic_write`; what json cannot write raises first."""
    atomic_write(path, json.dumps(obj, indent=2))


def load_json(path: str):
    """The JSON document of the UTF-8 file at `path`; FormatError when it is not UTF-8 JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 text: {exc}") from exc
        except RecursionError as exc:
            raise FormatError(f"JSON nested too deeply: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}") from exc


def _load_check_input(path: str):
    """(gamma, Gamma or None, m) of a check or quasifree input.

    An object with `kind` and no `gamma` is a bare gamma matrix; any other
    object is a pair and needs `gamma`.
    """
    data = load_json(path)
    if not isinstance(data, dict) or ("kind" in data and "gamma" not in data):
        gamma, _, m = matrix_from_dict(data, "gamma")
        return gamma, None, m
    if "gamma" not in data:
        raise FormatError("missing field 'gamma' in pair")
    gamma, _, m = matrix_from_dict(data["gamma"], "gamma")
    Gamma = None
    if "Gamma" in data:
        Gamma, _, m2 = matrix_from_dict(data["Gamma"], "Gamma")
        if m2 != m:
            raise FormatError(f"field 'Gamma' has m = {m2}, gamma has m = {m}")
    return gamma, Gamma, m
