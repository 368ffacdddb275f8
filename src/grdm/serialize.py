"""JSON schemas for elements, matrices, and condition reports.

All artifacts are plain JSON so fixtures stay human-diffable; writes go
through a temp file plus rename so readers never observe partial output.
Coefficients round-trip bit-exactly for binary64 values.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .algebra import GrassmannElement, _indices, _split_index, make_element


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


def element_from_dict(d: dict) -> GrassmannElement:
    m = _need_m(d, "element")
    raw = _need(d, "terms", list, "element")
    triples = []
    for k, t in enumerate(raw):
        if not isinstance(t, dict):
            raise FormatError(f"field 'terms[{k}]' in element is not an object")
        bar = _need(t, "bar", list, f"element term {k}")
        unbar = _need(t, "unbar", list, f"element term {k}")
        re = _need(t, "re", (int, float), f"element term {k}")
        im = _need(t, "im", (int, float), f"element term {k}")
        triples.append((bar, unbar, complex(re, im)))
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


_EXPECTED_DIM = {
    "gamma": lambda m: m,
    "Gamma": lambda m: m * m,
    "density": lambda m: 1 << m,
    "operator": lambda m: 1 << m,
}


def matrix_from_dict(d: dict, expect_kind: str | None = None) -> tuple[np.ndarray, str, int]:
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
    re = _need(d, "re", list, f"{kind} matrix")
    im = _need(d, "im", list, f"{kind} matrix")
    try:
        parts = {"re": np.asarray(re, dtype=float), "im": np.asarray(im, dtype=float)}
    except (TypeError, ValueError) as exc:
        raise FormatError(f"fields 're'/'im' are not numeric matrices: {exc}") from exc
    for name, part in parts.items():
        if part.shape != (dim, dim):
            raise FormatError(f"field '{name}' has shape {part.shape}, expected ({dim}, {dim})")
        if not np.isfinite(part).all():
            raise FormatError(f"field '{name}' of the {kind} matrix holds a non-finite value")
    return parts["re"] + 1j * parts["im"], kind, m


def atomic_write_json(path: str, obj) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(obj, indent=2) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}") from exc
