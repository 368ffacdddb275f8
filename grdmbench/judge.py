"""Output checks that do not trust grdm.

Every expected verdict follows from how the benchmark built the input, and
every number is recomputed with numpy and the benchmark's own Jordan-Wigner
ladders.  Each judge returns None for a correct op and otherwise a one-line
reason; a wrong output counts as a failed op.
"""

from __future__ import annotations

import json

import numpy as np

from inputs import P_SHIFT, ladders

CHECK_CONDITIONS = ["first-order", "P", "Q", "G", "T1", "T2"]
ROUNDOFF_TOL = 1e-9
QUASIFREE_WORDS = 2080  # words of 1..4 distinct generators out of 8


def _matrix(d: dict) -> np.ndarray:
    return np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)


def _load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        return exc


def judge_check(rc: int, report_path: str, pair: dict, shifted: bool) -> str | None:
    """Genuine pairs pass all six conditions; P-shifted ones fail P and exit 1."""
    want_rc = 1 if shifted else 0
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    reports = _load(report_path)
    if isinstance(reports, Exception):
        return f"unreadable report: {reports}"
    if [r.get("condition") for r in reports] != CHECK_CONDITIONS:
        return f"report conditions {[r.get('condition') for r in reports]}"
    for r in reports:
        if r["pass"] is not (r["margin"] >= -r["tol"]):
            return f"{r['condition']} verdict {r['pass']} contradicts margin {r['margin']!r}"
    verdicts = {r["condition"]: r["pass"] for r in reports}
    if shifted:
        if verdicts["P"] is not False or verdicts["first-order"] is not True:
            return f"P-shifted pair got verdicts {verdicts}"
    elif not all(v is True for v in verdicts.values()):
        return f"genuine pair got verdicts {verdicts}"
    Gamma = _matrix(pair["Gamma"])
    want = float(np.linalg.eigvalsh(Gamma).min())
    got = reports[1]["margin"]
    if not abs(got - want) <= ROUNDOFF_TOL * (1.0 + float(np.max(np.abs(Gamma)))):
        return f"P margin {got!r}, numpy gives {want!r}"
    if shifted and not want < -P_SHIFT / 2:
        return f"P-shifted pair has P margin {want!r}"
    return None


def judge_fuzz(rc: int, summary_path: str, seed: int) -> str | None:
    """A one-trial m=5 campaign on a genuine density: no failure, pdms agree to roundoff."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    s = _load(summary_path)
    if isinstance(s, Exception):
        return f"unreadable summary: {s}"
    if (s.get("m"), s.get("trials"), s.get("seed")) != (5, 1, seed):
        return f"summary is for m={s.get('m')} trials={s.get('trials')} seed={s.get('seed')}"
    if s.get("failures") != 0 or s.get("all_pass") is not True:
        return f"failures {s.get('failures')} on a genuine density"
    if sorted(s.get("worst_margins", {})) != sorted(CHECK_CONDITIONS):
        return f"worst margins for {sorted(s.get('worst_margins', {}))}"
    if not s.get("pdm_max_dev", np.inf) <= ROUNDOFF_TOL:
        return f"pdm_max_dev {s.get('pdm_max_dev')!r} above roundoff"
    return None


def element_operator(element: dict) -> np.ndarray:
    """Fock matrix of an element JSON: sum of coeff * C*_I C_J, factors ascending."""
    m = element["m"]
    crt, ann = ladders(m)
    dim = 1 << m
    out = np.zeros((dim, dim), dtype=complex)
    for t in element["terms"]:
        op = np.eye(dim, dtype=complex)
        for i in t["bar"]:
            op = op @ crt[i - 1]
        for j in t["unbar"]:
            op = op @ ann[j - 1]
        out += complex(t["re"], t["im"]) * op
    return out


def judge_quasifree(rc: int, out_path: str, gamma: dict) -> str | None:
    """The written element is a unit-trace Fock density whose one-body matrix is gamma."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    out = _load(out_path)
    if isinstance(out, Exception):
        return f"unreadable result: {out}"
    rep = out.get("report", {})
    if rep.get("points_checked") != QUASIFREE_WORDS:
        return f"points_checked {rep.get('points_checked')}, expected {QUASIFREE_WORDS}"
    for key in ("pdm1_max_dev", "wick_max_dev"):
        if not rep.get(key, np.inf) <= ROUNDOFF_TOL:
            return f"{key} {rep.get(key)!r} above roundoff"
    rho = element_operator(out["element"])
    if not abs(np.trace(rho) - 1.0) <= ROUNDOFF_TOL:
        return f"element has Fock trace {np.trace(rho)!r}"
    m = gamma["m"]
    crt, ann = ladders(m)
    g = np.array([[np.trace(rho @ crt[l] @ ann[k]) for l in range(m)] for k in range(m)])
    dev = float(np.max(np.abs(g - _matrix(gamma))))
    if not dev <= ROUNDOFF_TOL:
        return f"element one-body matrix deviates from the input by {dev:.3e}"
    return None
