"""Reduced density matrices of Grassmann densities and representability checks.

Each condition P, Q, G, T1, T2 is positivity of one form with two independent
realizations, cross-validated against each other.  One table, CONDITIONS,
gives each name both: the probes b_a and mode of its star-product form on the
density element, F[a, b] = <b_a* b_b> (plain: P, Q, G) or <b_a* b_b + b_b b_a*>
(anticommutator: T1, T2), and the probe tensors and terms of its closed form
in the one- and two-body matrices (gamma, Gamma); G, the centred row, also
subtracts the product of its probes' means on both sides.
The Grassmann-side pdms and forms are linear in the density, so each is a
fixed combination of its moments star_trace(kappa, t), |bar| = |unbar| <= 2
for t, which one cached map per m reads off the coefficient vector; moment 0
is the trace that every density check reads, and Gamma is P's form transposed.
The closed forms are linear in (Gamma, gamma): each is one cached index map
per m (`_index_map`) whose entries are single Gamma and gamma entries times
probe coefficients, built from the nonzeros of the probe tensors and calling
no star product.  The per-tensor values check_T1 and check_T2_generalized
are the T1 and T2 forms at the tensor's coordinates on those probes.

Index conventions (0-based in code): gamma[k, l] is the expectation of
pbar_{l+1} * p_{k+1}; two-body indices flatten row-major, (k, l) -> k*m + l,
and Gamma[(i, j), (k, l)] is the expectation of the normal-ordered word
pbar_{l+1} pbar_{k+1} p_{i+1} p_{j+1}.

The generalized two-body third-order condition stores a three-index tensor T
with slices [T_k]_{ij} = T[i, j, k].  The mixed linear term of its closed form
uses the index order sum_q [T_j^(A)]_{q i} conj(a_q) in the second summand;
the alternative order [T_j^(A)]_{i q} flips that term's sign and fails the
cross-validation against the star-product form, which is how the order was
fixed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (
    ANTISYMMETRY_TOL,
    ELEMENT_CAP,
    FOCK_CAP,
    FORM_HERMITIAN_TOL,
    PSD_REL_TOL,
    STAR_CAP,
    GrassmannElement,
    Monomial,
    _check_m,
    _coo_apply,
    _generators,
    _involution_terms,
    _moment_rows,
    _mono_products,
    _pair_sums,
    _read_only,
    _require_finite,
    _require_hermitian,
    _require_unit_trace,
    _scale,
    _star_pairs,
    _sum_terms,
    monomial_element,
)


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    margin: float
    passed: bool
    tol: float
    method: str

    def as_dict(self) -> dict:
        return {
            "condition": self.condition,
            "margin": self.margin,
            "pass": self.passed,
            "tol": self.tol,
            "method": self.method,
        }


def psd_tolerance(matrix: np.ndarray) -> float:
    """Relative PSD tolerance PSD_REL_TOL * (1 + max-norm)."""
    return PSD_REL_TOL * _scale(matrix)


def report_from_form(condition: str, matrix: np.ndarray, method: str,
                     tol: float | None = None) -> ConditionReport:
    """Hermiticity-checked minimum-eigenvalue report for a form matrix."""
    herm = (matrix + matrix.conj().T) / 2
    dev = np.max(np.abs(matrix - herm)) if matrix.size else 0.0
    scale = _scale(matrix)
    if not dev / scale <= FORM_HERMITIAN_TOL:
        raise ValueError(f"{condition}: form matrix is not Hermitian (deviation {dev:.3e})")
    margin = _min_eigenvalue(herm)
    tol = PSD_REL_TOL * scale if tol is None else tol
    return ConditionReport(condition, margin, margin >= -tol, tol, method)


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


# ---------------------------------------------------------------------------
# Grassmann-side quantities as linear maps on the density's coefficients

class _LinearMap(NamedTuple):
    """A linear map kappa -> array of `shape`: out = W @ (M @ kappa.to_vector()).

    `moments` (M) holds the rows star_trace(kappa, t) of the monomials t the
    output reads, whose to_vector indices `monomials` lists in row order;
    `combine` (W) sums them, with coefficients, into the flattened output.
    Both are read-only COO triples (row, col, val) whose duplicate entries
    add up; the table maps share `_moment_map`'s M.
    """

    moments: tuple
    monomials: np.ndarray
    combine: tuple
    shape: tuple

    def combine_moments(self, moments: np.ndarray) -> np.ndarray:
        """The map on kappa's moments, M @ kappa.to_vector()."""
        return _coo_apply(*self.combine, moments, math.prod(self.shape)).reshape(self.shape)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """The map on a coefficient vector, kappa.to_vector()."""
        return self.combine_moments(_coo_apply(*self.moments, vec, len(self.monomials)))


def _linear_map(entries: tuple, shape: tuple, m: int, shared: bool = False) -> _LinearMap:
    """The map out[row] = sum of coeff * star_trace(kappa, t) over COO arrays (row, t, coeff).

    Each t is a monomial's to_vector index.  A shared map reads the moments
    of `_moment_map(m)`, which must cover every t; any other gets moment
    rows of just the distinct t its entries name, in ascending order.
    """
    rows, ts, coeffs = entries
    ts = np.asarray(ts, dtype=np.intp)
    if shared:
        moments, monomials = _moment_map(m)
        order = np.argsort(monomials)
        cols = order[np.minimum(np.searchsorted(monomials[order], ts), len(order) - 1)]
        if not np.array_equal(monomials[cols], ts):
            raise ValueError("an entry reads a monomial outside the shared moment map")
    else:
        monomials, cols = np.unique(ts, return_inverse=True)
        moments = _read_only(*_moment_rows(monomials, m))
        monomials.setflags(write=False)
    combine = _read_only(np.asarray(rows, dtype=np.intp), cols.astype(np.intp).ravel(),
                         np.asarray(coeffs, dtype=complex))
    return _LinearMap(moments, monomials, combine, shape)


@functools.lru_cache(maxsize=ELEMENT_CAP)
def _moment_map(m: int) -> tuple[tuple, np.ndarray]:
    """The moment rows of every table quantity at m, and the to_vector index of each row's monomial.

    The monomials are those with |bar| = |unbar| <= 2, which is all that the
    pdms and the five table forms read (the anticommutator cancels the T1/T2
    three-body terms exactly): the unit first, so moment 0 is the trace; then
    pbar_{k+1} p_{l+1} at row 1 + k*m + l; then the two-body monomials.
    """
    ones = 1 << np.arange(m)
    twos = np.array([(1 << k) | (1 << l) for k, l in combinations(range(m), 2)], dtype=np.intp)
    monomials = np.concatenate([[0]] + [((block[:, None] << m) | block).ravel()
                                        for block in (ones, twos)]).astype(np.intp)
    return _read_only(*_moment_rows(monomials, m)), _read_only(monomials)[0]


def _moments(vec: np.ndarray, m: int) -> np.ndarray:
    """The `_moment_map` moments of a density's to_vector(), once its trace is checked to be 1."""
    rows, monomials = _moment_map(m)
    _require_finite(vec, "density element")
    moments = _coo_apply(*rows, vec, len(monomials))
    _require_unit_trace(moments[0])
    return moments


def _form_entries(probes: list[GrassmannElement], mode: str, m: int) -> tuple:
    """F[a, b] = tr(kappa * X_ab), X_ab = b_a* * b_b (+ b_b * b_a*), as COO arrays (row, t, coeff).

    Row a * n + b holds the expanded X_ab.  Every term of every b_a* meets
    every term of every b_b in the `_star_pairs` kernel, one call (in
    bounded chunks) per product order, with no element per pair: a table
    probe is one monomial up to sign, so a table form is n**2 monomial pairs,
    cheap at any m; quadratic_form_matrix checks STAR_CAP for any probes
    itself.  The entries are sorted by (row, t), one per (row, t), and the
    terms that cancel exactly, such as the anticommutator's three-body
    terms, are dropped.
    """
    n = len(probes)
    terms = rows, index, coeffs = _stack_terms(probes)
    bstars = (rows * n, *_involution_terms(index, coeffs, m))
    keys, coeffs = _pair_sums(_star_pairs, bstars, terms, m)
    if mode == "anticommutator":
        more = _pair_sums(_star_pairs, terms, bstars, m)
        keys, coeffs = _sum_terms(np.concatenate((keys, more[0])), np.concatenate((coeffs, more[1])))
    return keys >> (2 * m), keys & ((1 << (2 * m)) - 1), coeffs


def _stack_terms(elements: list[GrassmannElement]) -> tuple:
    """The elements' terms as `_pair_sums` operands: (row, index, coeff), element k's in row k."""
    empty = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=complex))
    index, coeffs = (np.concatenate(part) for part in zip(empty, *(b.arrays() for b in elements)))
    rows = np.repeat(np.arange(len(elements)), [len(b.arrays()[0]) for b in elements])
    return rows, index, coeffs


@functools.lru_cache(maxsize=16)
def _probe_set_map(condition: str, m: int) -> _LinearMap:
    """A table condition's form at one m, on the shared moments; at most 16 are cached."""
    probes, mode = CONDITIONS[condition].probes(m), CONDITIONS[condition].mode
    return _linear_map(_form_entries(probes, mode, m), (len(probes),) * 2, m, shared=True)


def _pdm1(moments: np.ndarray, m: int) -> np.ndarray:
    return np.ascontiguousarray(moments[1:1 + m * m].reshape(m, m).T)


def _pdm2(moments: np.ndarray, m: int) -> np.ndarray:
    """Gamma[(i, j), (k, l)] = <pbar_{l+1} pbar_{k+1} p_{i+1} p_{j+1}>, P's form transposed."""
    return np.ascontiguousarray(_probe_set_map("P", m).combine_moments(moments).T)


def pdm1_from_density(kappa: GrassmannElement) -> np.ndarray:
    """One-body matrix gamma[k, l] = <pbar_{l+1} * p_{k+1}> by star-trace."""
    return _pdm1(_moments(kappa.to_vector(), kappa.m), kappa.m)


def pdm2_from_density(kappa: GrassmannElement) -> np.ndarray:
    """Two-body matrix by star-trace against normal-ordered generator words."""
    return _pdm2(_moments(kappa.to_vector(), kappa.m), kappa.m)


def quadratic_form_matrix(kappa: GrassmannElement, probes: list[GrassmannElement],
                          mode: str = "plain") -> np.ndarray:
    """Form F[a, b] = <b_a* * b_b> (plain) or the anticommutator version.

    Probes may be arbitrary elements over the density's generator count; the
    form is PSD (up to roundoff) whenever kappa is a genuine Grassmann density.
    """
    if mode not in ("plain", "anticommutator"):
        raise ValueError(f"unknown form mode {mode!r}")
    if not probes:
        raise ValueError("probe list is empty")
    _check_m(kappa.m, STAR_CAP)
    vec = kappa.to_vector()
    _moments(vec, kappa.m)  # the trace check
    for b in probes:
        if b.m != kappa.m:
            raise ValueError("probe generator count differs from density")
    return _linear_map(_form_entries(probes, mode, kappa.m), (len(probes),) * 2, kappa.m).apply(vec)


def monomial_basis(m: int, order: int) -> list[GrassmannElement]:
    """All basis monomials with at most `order` barred and unbarred indices."""
    masks = [x for x in range(1 << m) if x.bit_count() <= order]
    return [monomial_element(Monomial(bar, ub), m) for bar in masks for ub in masks]


def order_n_check(kappa: GrassmannElement, n: int) -> ConditionReport:
    """Positivity of the plain form over the full monomial basis of order n.

    n = 1 scans the one-body block of probes, n = 2 the two-body block; higher
    orders are out of scope.
    """
    if n not in (1, 2):
        raise ValueError(f"order-{n} checks are not supported (n must be 1 or 2)")
    F = quadratic_form_matrix(kappa, monomial_basis(kappa.m, n), "plain")
    return report_from_form(f"order-{n}", F, "grassmann-form")


# ---------------------------------------------------------------------------
# closed-form condition matrices

def first_order_report(gamma: np.ndarray) -> ConditionReport:
    """Spectrum bounds 0 <= gamma <= 1 as a single margin."""
    return _first_order(_require_hermitian(gamma, "gamma"))


def _first_order(gamma: np.ndarray) -> ConditionReport:
    """first_order_report on a validated gamma."""
    eigs = np.linalg.eigvalsh(gamma)
    margin = float(min(eigs.min(), 1.0 - eigs.max()))
    tol = psd_tolerance(gamma)
    return ConditionReport("first-order", margin, margin >= -tol, tol, "closed-form")


def check_P(gamma: np.ndarray, Gamma: np.ndarray, tol: float | None = None) -> ConditionReport:
    return closed_form_report("P", gamma, Gamma, tol)


def check_Q(gamma: np.ndarray, Gamma: np.ndarray, tol: float | None = None) -> ConditionReport:
    return closed_form_report("Q", gamma, Gamma, tol)


def check_G(gamma: np.ndarray, Gamma: np.ndarray, tol: float | None = None) -> ConditionReport:
    return closed_form_report("G", gamma, Gamma, tol)


# ---------------------------------------------------------------------------
# third-order conditions

def require_totally_antisymmetric(T: np.ndarray) -> np.ndarray:
    T = np.asarray(T, dtype=complex)
    if T.ndim != 3 or len(set(T.shape)) != 1:
        raise ValueError(f"expected an m x m x m tensor, got shape {T.shape}")
    dev = np.max(np.abs([T + T.transpose(1, 0, 2), T + T.transpose(0, 2, 1)]))
    if not dev / _scale(T) <= ANTISYMMETRY_TOL:
        raise ValueError("tensor is not totally antisymmetric")
    return T


def _require_probe_array(x, shape: tuple, name: str) -> np.ndarray:
    """`x` as a finite complex array of the given shape."""
    x = np.asarray(x, dtype=complex)
    if x.shape != shape:
        raise ValueError(f"{name} shape {x.shape} does not match {shape}")
    _require_finite(x, name)
    return x


def check_T1(gamma: np.ndarray, Gamma: np.ndarray, T: np.ndarray) -> float:
    """Closed-form scalar of the first third-order condition for one probe tensor.

    Re(c* F c) / 3 for F the T1 form and c_ijk = 6 T[i, j, k], i < j < k,
    the coordinates of the totally antisymmetric T on the unit tensors.
    """
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    T = require_totally_antisymmetric(_require_probe_array(T, (m, m, m), "T"))
    return _form_value("T1", m, _source(gamma, Gamma), 6 * T[_t1_indices(m)]) / 3


def _t1_probe_elements(m: int) -> list[GrassmannElement]:
    """The ordered cubic probes p_i p_j p_k, i < j < k."""
    return _word_probes([[m + i, m + j, m + k] for i, j, k in combinations(range(m), 3)], m)


def t1_form_from_pdms(gamma: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """T1 anticommutator form over ordered cubic probes, built from (gamma, Gamma).

    Entry (a, b) sums the T1 terms of the condition table on the unit tensors
    E_a, E_b of `_t1_stacks`, read off the cached index map `_index_map("T1", m)`.
    """
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    return _index_form("T1", m, _source(gamma, Gamma))


def check_T1_full(kappa: GrassmannElement) -> ConditionReport:
    """T1 as min eigenvalue of the anticommutator form over all cubic probes."""
    return condition_form_report(kappa, "T1")


def check_T2_generalized(gamma: np.ndarray, Gamma: np.ndarray, T: np.ndarray,
                         a: np.ndarray) -> float:
    """Closed-form scalar of the generalized second third-order condition.

    Re(c* F c) for F the T2 form and c the coordinates of (T, a) on its
    probes: T[i, j, k] - T[j, i, k] for i < j, then a.  So the value reads
    only T's part antisymmetric in its first pair of indices.
    """
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    T = _require_probe_array(T, (m, m, m), "T")
    a = _require_probe_array(a, (m,), "a")
    c = np.concatenate(((T - T.transpose(1, 0, 2))[np.triu_indices(m, 1)].ravel(), a))
    return _form_value("T2", m, _source(gamma, Gamma), c)


def _t2_probe_elements(m: int) -> list[GrassmannElement]:
    """The cubic probes pbar_i pbar_j p_k, i < j, then the linear probes pbar_i."""
    cubic = [[i, j, m + k] for i, j in combinations(range(m), 2) for k in range(m)]
    return _word_probes(cubic, m) + _word_probes([[i] for i in range(m)], m)


def t2_form_from_pdms(gamma: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """Generalized T2 anticommutator form over cubic and linear probes.

    Entry (x, y) sums the T2 terms of the condition table on the probe
    tensors of `_t2_stacks`, read off the cached index map `_index_map("T2", m)`.
    """
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    return _index_form("T2", m, _source(gamma, Gamma))


def check_T2_full(kappa: GrassmannElement) -> ConditionReport:
    """Generalized T2 as min eigenvalue of the anticommutator form."""
    return condition_form_report(kappa, "T2")


# ---------------------------------------------------------------------------
# closed forms as index maps on (Gamma, gamma)

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
    """One form two ways: `terms` on the tensors `stacks(m)`, the `mode` form of `probes(m)` on kappa."""

    stacks: Callable[[int], dict]
    terms: tuple
    probes: Callable[[int], list[GrassmannElement]]
    mode: str
    centred: bool


def _word_probes(words: list, m: int) -> list[GrassmannElement]:
    """The wedge products of generator words of one length, numbered as in `algebra._generators`.

    Each is one monomial up to sign, or zero where a generator repeats; one
    `_mono_products` call per word position builds them all.
    """
    if not words:
        return []
    gens = _generators(m)
    words = np.array(words, dtype=np.intp)
    live, index, sign = np.arange(len(words)), gens[words[:, 0]], np.ones(len(words), dtype=np.intp)
    for position in words.T[1:]:
        pair, index, more = _mono_products(index, gens[position[live]], m)
        live, sign = live[pair], sign[pair] * more
    probes = [GrassmannElement(m, {})] * len(words)
    for k, w in enumerate(live.tolist()):
        probes[w] = GrassmannElement._from_arrays(m, index[k:k + 1], sign[k:k + 1].astype(complex))
    return probes


def _pair_probes(shifts: tuple[int, int], m: int) -> list[GrassmannElement]:
    """The m * m products of generators a + k and b + l, (a, b) = shifts, in pair order k*m + l."""
    a, b = shifts
    return _word_probes([[a + k, b + l] for k in range(m) for l in range(m)], m)


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
    "P": Condition(_pair_stacks, _P_TERMS, lambda m: _pair_probes((m, m), m), "plain", False),
    "Q": Condition(_pair_stacks, _P_TERMS + (
        ("U", "U", "ij,ij,", 1), ("U", "U", "ij,ji,", -1), ("U", "U", "ij,kj,ik", -1),
        ("U", "U", "ij,il,jl", -1), ("U", "U", "ij,ki,jk", 1), ("U", "U", "ij,jl,il", 1)),
        lambda m: _pair_probes((0, 0), m), "plain", False),
    "G": Condition(_pair_stacks, (("U", "U", "kl,kn,nl", 1), ("U", "U", "kl,mn,knml", -1)),
                   lambda m: _pair_probes((0, m), m), "plain", True),
    "T1": Condition(_t1_stacks, (("E", "E", "iqk,iqk,", 6), ("E", "E", "iqk,iqp,pk", -18),
                                 ("E", "E", "jql,iqk,ikjl", 9)),
                    _t1_probe_elements, "anticommutator", False),
    "T2": Condition(_t2_stacks, (("T", "T", "ijq,klq,ijkl", 1), ("T", "T", "jqk,qab,bjka", 4),
                                 ("T", "T", "jqk,jqp,pk", 2), ("T", "a", "qji,q,ji", 2),
                                 ("a", "T", "q,qij,ji", 2), ("a", "a", "q,q,", 1)),
                    _t2_probe_elements, "anticommutator", False),
}


def closed_form_report(condition: str, gamma: np.ndarray, Gamma: np.ndarray,
                       tol: float | None = None) -> ConditionReport:
    """Margin of a table condition's closed-form matrix in (gamma, Gamma)."""
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    return report_from_form(condition, _index_form(condition, m, _source(gamma, Gamma)),
                            "closed-form", tol)


def _form_report(condition: str, moments: np.ndarray, m: int) -> ConditionReport:
    """Margin of a table condition's star-product form, combined from the shared moments.

    A centred condition's form is the plain form minus outer(conj(s), s)
    with s_a = <b_a>, the one-body moments.
    """
    F = _probe_set_map(condition, m).combine_moments(moments)
    if CONDITIONS[condition].centred:
        s = moments[1:1 + m * m]
        F -= np.outer(s.conj(), s)
    return report_from_form(condition, F, "grassmann-form")


def condition_form_report(kappa: GrassmannElement, condition: str) -> ConditionReport:
    """Margin of a table condition's star-product form on kappa, from the cached map."""
    return _form_report(condition, _moments(kappa.to_vector(), kappa.m), kappa.m)


# ---------------------------------------------------------------------------
# fuzz campaign

@dataclass(frozen=True)
class FuzzSummary:
    m: int
    trials: int
    seed: int
    sector: int | None
    worst_margins: dict
    pdm_max_dev: float
    contraction_max_dev: float
    failures: int

    @property
    def all_pass(self) -> bool:
        return self.failures == 0

    def as_dict(self) -> dict:
        return {"m": self.m, "trials": self.trials, "seed": self.seed, "sector": self.sector,
                "worst_margins": dict(self.worst_margins), "pdm_max_dev": self.pdm_max_dev,
                "contraction_max_dev": self.contraction_max_dev, "failures": self.failures,
                "all_pass": self.all_pass}


def condition_battery(gamma: np.ndarray, Gamma: np.ndarray | None = None,
                      kappa: GrassmannElement | None = None) -> list[ConditionReport]:
    """First-order, then the table conditions in order: the battery of check and fuzz.

    P/Q/G run in closed form when Gamma is given.  T1/T2 run on kappa's
    Grassmann form when kappa is given and in closed form otherwise.
    """
    if kappa is None:
        return _battery(gamma, Gamma, None, None)
    return _battery(gamma, Gamma, _moments(kappa.to_vector(), kappa.m), kappa.m)


def _battery(gamma, Gamma, moments, m) -> list[ConditionReport]:
    """condition_battery with kappa given by its moments at m, or None.

    The pair is validated and its source built once; each closed form goes
    from `_index_form`, Hermitian by construction, straight to one eigensolve.
    """
    if Gamma is None:
        gamma, source = _require_hermitian(gamma, "gamma"), None
    else:
        gamma, Gamma, pair_m = _validate_pair(gamma, Gamma)
        source = _source(gamma, Gamma)
    reports = [_first_order(gamma)]
    for name in CONDITIONS:
        if moments is not None and name in ("T1", "T2"):
            reports.append(_form_report(name, moments, m))
        elif source is not None:
            F = _index_form(name, pair_m, source)
            margin, tol = _min_eigenvalue(F), psd_tolerance(F)
            reports.append(ConditionReport(name, margin, margin >= -tol, tol, "closed-form"))
    return reports


def fuzz_conditions(m: int, trials: int, seed: int, sector: int | None = None) -> FuzzSummary:
    """Run the condition battery on `trials` random genuine densities.

    Per-trial seeds derive deterministically from the master seed, so the
    summary is reproducible.  Each density's moments are computed once and
    serve its pdms and its Grassmann forms.  The Fock oracle is imported
    here, its one user in this module, so `grdm check` never loads it.
    """
    from . import fock

    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    _check_m(m, FOCK_CAP)
    worst: dict = {}
    failures = 0
    pdm_dev = 0.0
    cdev_max = 0.0
    for child in np.random.SeedSequence(seed).spawn(trials):
        rho = fock.random_density(m, child, sector=sector)
        moments = _moments(fock.from_operator(rho).to_vector(), m)
        gamma = _pdm1(moments, m)
        Gamma = _pdm2(moments, m)
        gamma_o, Gamma_o = fock.pdms_from_rho(rho)
        pdm_dev = max(pdm_dev, float(np.max(np.abs(gamma - gamma_o))),
                      float(np.max(np.abs(Gamma - Gamma_o))))
        if sector is not None and sector >= 2:
            cdev_max = max(cdev_max, float(fock.contraction_check(rho)))
        for rep in _battery(gamma, Gamma, moments, m):
            prev = worst.get(rep.condition)
            if prev is None or rep.margin < prev:
                worst[rep.condition] = rep.margin
            if not rep.passed:
                failures += 1
    return FuzzSummary(m, trials, seed, sector, worst, pdm_dev, cdev_max, failures)
