"""The closed-form realization of the conditions, in (gamma, Gamma) alone.

The paper's P, Q, G, T1 and T2 conditions are positivity of forms in the one-
and two-body matrices, so checking a pair needs no Grassmann element.  This
module holds the condition table, CONDITIONS, with each row's probe tensors
and closed-form terms and its probes named as generator words; the cached
index maps of the closed forms; and the battery that `grdm check` runs.  It
reads numpy and `limits` only.  The star-product realization of the same
forms, which builds each row's word probes as elements and cross-validates
against this one, lives in `conditions`.

Each closed form is linear in (Gamma, gamma): it is one cached index map per
m (`_index_map`) whose entries are single Gamma and gamma entries times probe
coefficients, built from the nonzeros of the probe tensors.  Index
conventions (0-based): gamma[k, l] is the expectation of pbar_{l+1} * p_{k+1};
two-body indices flatten row-major, (k, l) -> k*m + l, and Gamma[(i, j), (k, l)]
is the expectation of the normal-ordered word pbar_{l+1} pbar_{k+1} p_{i+1} p_{j+1}.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .limits import PSD_REL_TOL, _coo_apply, _read_only, _require_hermitian, _scale


class ConditionReport(NamedTuple):
    """One condition's verdict: the form's least eigenvalue `margin` against `tol`."""

    condition: str
    margin: float
    tol: float
    method: str

    @property
    def passed(self) -> bool:
        """The verdict rule: the margin lies no further below 0 than tol; a NaN margin fails."""
        return self.margin >= -self.tol

    def as_dict(self) -> dict:
        return {
            "condition": self.condition,
            "margin": _json_margin(self.margin),
            "pass": self.passed,
            "tol": self.tol,
            "method": self.method,
        }


def _json_margin(margin: float) -> float | None:
    """A margin as a JSON value: None (null) when it is not finite, as the +inf of an empty form."""
    return margin if math.isfinite(margin) else None


def psd_tolerance(matrix: np.ndarray) -> float:
    """Relative PSD tolerance PSD_REL_TOL * (1 + max-norm)."""
    return PSD_REL_TOL * _scale(matrix)


def _min_eigenvalue(herm: np.ndarray) -> float:
    """The least eigenvalue of an exactly Hermitian form, inf when the form is empty."""
    return float(np.linalg.eigvalsh(herm).min()) if herm.size else math.inf


def _validate_pair(gamma: np.ndarray, Gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    gamma = _require_hermitian(gamma, "gamma")
    Gamma = _require_hermitian(Gamma, "Gamma")
    m = gamma.shape[0]
    if Gamma.shape != (m * m, m * m):
        raise ValueError(f"Gamma shape {Gamma.shape} does not match m = {m}")
    return gamma, Gamma, m


def _source(gamma: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """v = [Gamma.ravel(), gamma.ravel(), 1], the vector every closed form's index map reads."""
    return np.concatenate((Gamma.ravel(), gamma.ravel(), [1.0]))


def _first_order(gamma: np.ndarray) -> ConditionReport:
    """Spectrum bounds 0 <= gamma <= 1 as a single margin, on a validated gamma."""
    eigs = np.linalg.eigvalsh(gamma)
    margin = float(min(eigs.min(), 1.0 - eigs.max()))
    return ConditionReport("first-order", margin, psd_tolerance(gamma), "closed-form")


# ---------------------------------------------------------------------------
# the probe tensors of the closed forms

def _pair_stacks(m: int) -> dict:
    """The m * m unit matrices U[k*m + l] = e_k e_l^T, one per pair probe of P, Q and G."""
    return {"U": np.eye(m * m, dtype=complex).reshape(-1, m, m)}


def _t1_indices(m: int) -> tuple:
    """The index arrays (i, j, k) of the T1 probes, the triples i < j < k in order."""
    return tuple(np.array(list(combinations(range(m), 3)), dtype=np.intp).reshape(-1, 3).T)


def _t1_stacks(m: int) -> dict:
    """The unit tensors E of the T1 probes: +-1/6 at the six signed orders of each triple."""
    ijk = _t1_indices(m)
    E = np.zeros((len(ijk[0]), m, m, m), dtype=complex)
    for order, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                        ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)):
        E[(np.arange(len(E)), *(ijk[p] for p in order))] = sign / 6
    return {"E": E}


def _t2_stacks(m: int) -> dict:
    """The T2 probe tensors: T = (e_i e_j - e_j e_i) e_k / 2 for the cubic probes, a = e_i for the linear."""
    i, j = np.repeat(np.triu_indices(m, 1), m, axis=1)
    cubic = np.arange(len(i))
    T = np.zeros((len(i) + m, m, m, m), dtype=complex)
    T[cubic, i, j, cubic % m], T[cubic, j, i, cubic % m] = 0.5, -0.5
    a = np.zeros((len(T), m), dtype=complex)
    a[len(i):] = np.eye(m)
    return {"T": T, "a": a}


# ---------------------------------------------------------------------------
# closed forms as index maps on (Gamma, gamma)

def _flat(indices: list, m: int, size: int) -> np.ndarray:
    """Row-major flat index over (m,) * len(indices) of equal-length index arrays."""
    out = np.zeros(size, dtype=np.intp)
    for ix in indices:
        out = out * m + ix
    return out


def _join(kx: np.ndarray, ky: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (p, q) with kx[p] == ky[q], as two index arrays, p ascending."""
    order = np.argsort(ky, kind="stable")
    lo = np.searchsorted(ky[order], kx, "left")
    counts = np.searchsorted(ky[order], kx, "right") - lo
    first = np.cumsum(counts) - counts
    xi = np.repeat(np.arange(len(kx)), counts)
    return xi, order[np.arange(len(xi)) + np.repeat(lo - first, counts)]


def _term_entries(x, y, spec: str, scale: float, n: int, m: int):
    """(row, source, coeff) of one term, from the nonzeros of X and Y joined on shared indices."""
    (px, ix, vx), (py, iy, vy) = x, y
    xs, ys, ss = spec.split(",")
    shared = [c for c in xs if c in ys]
    xi, yi = _join(_flat([ix[xs.index(c)] for c in shared], m, len(px)),
                   _flat([iy[ys.index(c)] for c in shared], m, len(py)))
    index = {c: ix[k][xi] for k, c in enumerate(xs)} | {c: iy[k][yi] for k, c in enumerate(ys)}
    offset = {4: 0, 2: m ** 4, 0: m ** 4 + m * m}[len(ss)]
    return (px[xi] * n + py[yi], offset + _flat([index[c] for c in ss], m, len(xi)),
            scale * vx[xi].conj() * vy[yi])


@functools.lru_cache(maxsize=16)
def _index_map(condition: str, m: int) -> tuple[tuple, int]:
    """A table condition's closed form at m as one COO map on v = [Gamma.ravel(), gamma.ravel(), 1].

    Returns the read-only (row, source, coeff) triple, whose duplicate
    entries add up, and the probe count n: the triple applied to v is the
    raveled n x n form before Hermitisation and centring.  At most 16 maps
    are cached.
    """
    row = CONDITIONS[condition]
    nonzeros = {}
    for name, stack in row.stacks(m).items():
        nz = np.nonzero(stack)
        nonzeros[name] = (nz[0], nz[1:], stack[nz])
        n = len(stack)
    entries = [_term_entries(nonzeros[x], nonzeros[y], spec, scale, n, m)
               for x, y, spec, scale in row.terms]
    return _read_only(*(np.concatenate(part) for part in zip(*entries))), n


def _index_form(condition: str, m: int, source: np.ndarray) -> np.ndarray:
    """A table condition's closed form at m on a validated pair's `_source`, exactly Hermitian.

    (F + F^H)/2 with F the cached index map applied to the source; when the
    condition is centred, less outer(g, conj(g)) with g = gamma.ravel(), and
    Hermitised again, since the complex outer product can leave roundoff
    imaginary parts on its diagonal.
    """
    (rows, src, coeff), n = _index_map(condition, m)
    F = _coo_apply(rows, src, coeff, source, n * n).reshape(n, n)
    F = (F + F.conj().T) / 2
    if CONDITIONS[condition].centred:
        g = source[m ** 4:-1]
        F -= np.outer(g, g.conj())
        F = (F + F.conj().T) / 2
    return F


def _form_value(condition: str, m: int, source: np.ndarray, c: np.ndarray) -> float:
    """Re(c* F c) for F a table condition's closed form, summed straight off its index map.

    The uncentred forms only: F before Hermitisation gives the same real part.
    """
    (rows, src, coeff), n = _index_map(condition, m)
    return float(np.sum(c[rows // n].conj() * coeff * source[src] * c[rows % n]).real)


# ---------------------------------------------------------------------------
# the condition table

class Condition(NamedTuple):
    """One form two ways: `terms` on the tensors `stacks(m)`, the `mode` form of the probes `words(m)`.

    A word is a list of generator numbers, pbar_1 .. pbar_m as 0 .. m - 1
    and p_1 .. p_m as m .. 2m - 1, and its probe is the wedge product of
    those generators in order (`conditions._word_probes`).
    """

    stacks: Callable[[int], dict]
    terms: tuple
    words: Callable[[int], list]
    mode: str
    centred: bool


def _pair_words(shifts: tuple[int, int], m: int) -> list:
    """The m * m words of generators a + k and b + l, (a, b) = shifts, in pair order k*m + l."""
    a, b = shifts
    return [[a + k, b + l] for k in range(m) for l in range(m)]


def _t1_words(m: int) -> list:
    """The ordered cubic words p_i p_j p_k, i < j < k."""
    return [[m + i, m + j, m + k] for i, j, k in combinations(range(m), 3)]


def _t2_words(m: int) -> list:
    """The cubic words pbar_i pbar_j p_k, i < j, then the linear words pbar_i."""
    return ([[i, j, m + k] for i, j in combinations(range(m), 2) for k in range(m)]
            + [[i] for i in range(m)])


# Each closed form is F[x, y] = sum over its terms (x stack, y stack, spec,
# scale) of scale * sum conj(X[x, ...]) Y[y, ...] v[...], the einsum-style
# spec naming the indices of X, Y and the source v: Gamma[(i, j), (k, l)]
# for four letters, gamma for two, the constant 1 for none.  P is Gamma, Q
# Gamma + (1 - Ex)(1 - gamma x 1 - 1 x gamma), G delta_km gamma[n, l] -
# Gamma[(k, n), (m, l)] before centring; T1 is the sum over q of
# 3 (2 E_q^* E_q - 6 E_q^* E_q gamma + 3 E_q^* Gamma E_q), and T2 is, term
# by term, sum_q T_q^* Gamma T_q, a Gamma trace, the gamma terms of T^* T,
# T^* a and a^* T, and a^* a, on probes antisymmetric in their first pair.
# P's probes p_k p_l start at generators (m, m), Q's pbar_k pbar_l at (0, 0)
# and G's pbar_k p_l at (0, m).
_P_TERMS = (("U", "U", "ij,kl,ijkl", 1),)
CONDITIONS = {
    "P": Condition(_pair_stacks, _P_TERMS, lambda m: _pair_words((m, m), m), "plain", False),
    "Q": Condition(_pair_stacks, _P_TERMS + (
        ("U", "U", "ij,ij,", 1), ("U", "U", "ij,ji,", -1), ("U", "U", "ij,kj,ik", -1),
        ("U", "U", "ij,il,jl", -1), ("U", "U", "ij,ki,jk", 1), ("U", "U", "ij,jl,il", 1)),
        lambda m: _pair_words((0, 0), m), "plain", False),
    "G": Condition(_pair_stacks, (("U", "U", "kl,kn,nl", 1), ("U", "U", "kl,mn,knml", -1)),
                   lambda m: _pair_words((0, m), m), "plain", True),
    "T1": Condition(_t1_stacks, (("E", "E", "iqk,iqk,", 6), ("E", "E", "iqk,iqp,pk", -18),
                                 ("E", "E", "jql,iqk,ikjl", 9)),
                    _t1_words, "anticommutator", False),
    "T2": Condition(_t2_stacks, (("T", "T", "ijq,klq,ijkl", 1), ("T", "T", "jqk,qab,bjka", 4),
                                 ("T", "T", "jqk,jqp,pk", 2), ("T", "a", "qji,q,ji", 2),
                                 ("a", "T", "q,qij,ji", 2), ("a", "a", "q,q,", 1)),
                    _t2_words, "anticommutator", False),
}


def battery(gamma: np.ndarray, Gamma: np.ndarray | None = None,
            grassmann: Callable[[str], ConditionReport] | None = None) -> list[ConditionReport]:
    """First-order, then the table conditions in order: the battery of check and fuzz.

    P/Q/G run in closed form when Gamma is given.  T1/T2 run as
    `grassmann(name)` when it is given, the report of their star-product form
    on a density (`conditions.condition_battery`), and in closed form
    otherwise.  The pair is validated and its source built once; each closed
    form goes from `_index_form`, Hermitian by construction, straight to one
    eigensolve.
    """
    if Gamma is None:
        gamma, source = _require_hermitian(gamma, "gamma"), None
    else:
        gamma, Gamma, m = _validate_pair(gamma, Gamma)
        source = _source(gamma, Gamma)
    reports = [_first_order(gamma)]
    for name in CONDITIONS:
        if grassmann is not None and name in ("T1", "T2"):
            reports.append(grassmann(name))
        elif source is not None:
            F = _index_form(name, m, source)
            reports.append(ConditionReport(name, _min_eigenvalue(F), psd_tolerance(F),
                                           "closed-form"))
    return reports
