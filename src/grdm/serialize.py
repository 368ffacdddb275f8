"""JSON schemas for elements, matrices, and condition reports.

All artifacts are plain JSON so fixtures stay human-diffable; writes go
through a temp file plus rename so readers never observe partial output.
Coefficients round-trip bit-exactly for binary64 values.

`dumps` is the one writer, and json is its encoder: every file is json's
two-space indented output (`json.dumps` with `indent` 2).  The one thing
json cannot take is a `GrassmannElement` as a value of a top-level dict,
which is how `grdm quasifree` hands over its density: `dumps` writes such
an element straight from its arrays (`_element`), as the same bytes that
json would give for `element_to_dict(a)` there, without building the dict.
An element anywhere else raises TypeError, as json does for any type it
does not know.

At module level this imports only the standard library and numpy, since
matrices and reports need no element code.  The element modules are
imported inside the element paths: the writer needs only the element kernel
(`kernel`), and the reader, which builds through `algebra.make_element`,
`algebra` as well.
"""

from __future__ import annotations

import json
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

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


def _need_indices(t: dict, field: str, k: int, m: int) -> list:
    """A term's index list: ints (not bools), strictly ascending, in [1, m]."""
    idx = _need(t, field, list, f"element term {k}")
    if not all(type(i) is int for i in idx):
        raise FormatError(f"field 'terms[{k}].{field}' holds a non-integer index: {idx}")
    if idx and not (1 <= idx[0] and idx[-1] <= m and all(map(int.__lt__, idx, idx[1:]))):
        raise FormatError(f"field 'terms[{k}].{field}' must be strictly ascending "
                          f"indices in [1, {m}], got {idx}")
    return idx


def _need_finite(t: dict, field: str, k: int) -> float:
    val = _need(t, field, (int, float), f"element term {k}")
    # an exact comparison: NaN fails it, and so does an int past the float range
    if not abs(val) <= sys.float_info.max:
        raise FormatError(f"field 'terms[{k}].{field}' is not finite: {val}")
    return val


def element_from_dict(d: dict) -> GrassmannElement:
    from .algebra import make_element

    m = _need_m(d, "element")
    raw = _need(d, "terms", list, "element")
    triples = []
    for k, t in enumerate(raw):
        if not isinstance(t, dict):
            raise FormatError(f"field 'terms[{k}]' in element is not an object")
        bar = _need_indices(t, "bar", k, m)
        unbar = _need_indices(t, "unbar", k, m)
        triples.append((bar, unbar, complex(_need_finite(t, "re", k), _need_finite(t, "im", k))))
    try:
        return make_element(m, triples)
    except ValueError as exc:
        raise FormatError(f"element terms invalid: {exc}") from exc


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


_PLAIN = (dict, list, tuple, str, int, float, bool, type(None))


def _element(a: GrassmannElement, nl: str) -> str:
    """element_to_dict(a) as indent-2 JSON whose first line sits at indent `nl`."""
    from .kernel import _indices, _split_index

    i1, i2, i3, i4 = (nl + "  " * k for k in range(1, 5))
    index, coeffs = a.arrays()
    if not index.size:
        return f'{{{i1}"m": {a.m},{i1}"terms": []{nl}}}'
    bar, unbar = _split_index(index, a.m)
    lists = {k: f"[{i4}{(',' + i4).join(map(str, _indices(k)))}{i3}]" if k else "[]"
             for k in set(bar).union(unbar)}
    re, im = coeffs.real.tolist(), coeffs.imag.tolist()
    if not np.isfinite(coeffs).all():
        re, im = map(json.dumps, re), map(json.dumps, im)
    # str(x) of a float is float.__repr__(x), as json writes it
    terms = f",{i2}".join(
        f'{{{i3}"bar": {lists[b]},{i3}"unbar": {lists[u]},{i3}"re": {r},{i3}"im": {j}{i2}}}'
        for b, u, r, j in zip(bar, unbar, re, im))
    return f'{{{i1}"m": {a.m},{i1}"terms": [{i2}{terms}{i1}]{nl}}}'


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2)`; an element value of a top-level dict is written as its element_to_dict.

    Such an element is rendered straight from its arrays, without building
    the dict, and the dict's other values go through json one by one.  An
    element anywhere else, or a non-str key beside one, raises TypeError.
    """
    if isinstance(obj, dict) and not all(isinstance(v, _PLAIN) for v in obj.values()):
        from .kernel import GrassmannElement

        if any(isinstance(v, GrassmannElement) for v in obj.values()):
            items = []
            for k, v in obj.items():
                if not isinstance(k, str):
                    raise TypeError(f"keys beside an element must be str, not {type(k).__name__}")
                # json escapes every newline inside a string, so this indents lines alone
                text = (_element(v, "\n  ") if isinstance(v, GrassmannElement)
                        else json.dumps(v, indent=2).replace("\n", "\n  "))
                items.append(f"{json.dumps(k)}: {text}")
            return "{\n  " + ",\n  ".join(items) + "\n}"
    return json.dumps(obj, indent=2)


def atomic_write_json(path: str, obj) -> None:
    """Write `dumps(obj)` to path by way of a temp file and a rename, with open()'s mode 0666 & ~umask."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(dumps(obj) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
