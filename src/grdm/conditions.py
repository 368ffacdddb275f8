"""Reduced density matrices of Grassmann densities and representability checks.

Each condition P, Q, G, T1, T2 is positivity of one form with two independent
realizations, cross-validated against each other.  The table CONDITIONS maps
each name to its closed-form matrix in the one- and two-body matrices
(gamma, Gamma) and to the probes b_a and mode of its star-product form on the
density element, F[a, b] = <b_a* b_b> (plain: P, Q, G) or <b_a* b_b + b_b b_a*>
(anticommutator: T1, T2); G also subtracts the product of its probes' means.
The Grassmann-side pdms and forms are linear in the density, so each is a
fixed combination of its moments star_trace(kappa, t), |bar| = |unbar| <= 2
for t, which one cached map per m reads off the coefficient vector; moment 0
is the trace that every density check reads, and Gamma is P's form transposed.
The closed T1/T2 forms are linear in (Gamma, gamma) too: each is one cached
index map per m (`_index_map`) whose entries are single Gamma and gamma
entries times probe coefficients, built from the nonzeros of the probe
tensors and calling no star product, with `t1_bilinear` / `t2_bilinear` as
the per-pair references.

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
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (
    DENSITY_TRACE_TOL,
    ELEMENT_CAP,
    STAR_CAP,
    GrassmannElement,
    Monomial,
    _acc,
    _check_m,
    _coo_apply,
    _read_only,
    _star_terms,
    involution,
    moment_rows,
    monomial_element,
    multiply,
    psi,
    psibar,
)
from . import fock

HERMITIAN_INPUT_TOL = 1e-8
FORM_HERMITIAN_TOL = 1e-10  # relative to 1 + max-norm, for every form matrix


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
    """Relative PSD tolerance 1e-9 * (1 + max-norm)."""
    scale = float(np.max(np.abs(matrix))) if matrix.size else 0.0
    return 1e-9 * (1.0 + scale)


def report_from_form(condition: str, matrix: np.ndarray, method: str,
                     tol: float | None = None) -> ConditionReport:
    """Hermiticity-checked minimum-eigenvalue report for a form matrix."""
    herm = (matrix + matrix.conj().T) / 2
    dev = np.max(np.abs(matrix - herm)) if matrix.size else 0.0
    scale = 1.0 + (float(np.max(np.abs(matrix))) if matrix.size else 0.0)
    if dev > FORM_HERMITIAN_TOL * scale:
        raise ValueError(f"{condition}: form matrix is not Hermitian (deviation {dev:.3e})")
    margin = float(np.linalg.eigvalsh(herm).min()) if matrix.size else math.inf
    if tol is None:
        tol = psd_tolerance(matrix)
    return ConditionReport(condition, margin, margin >= -tol, tol, method)


def _require_hermitian(mat: np.ndarray, name: str, tol: float = HERMITIAN_INPUT_TOL) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    dev = np.max(np.abs(mat - mat.conj().T))
    if dev > tol:
        raise ValueError(f"{name} is not Hermitian: max deviation {dev:.3e}")
    return mat


def _validate_pair(gamma: np.ndarray, Gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    gamma = _require_hermitian(gamma, "gamma")
    Gamma = _require_hermitian(Gamma, "Gamma")
    m = gamma.shape[0]
    if Gamma.shape != (m * m, m * m):
        raise ValueError(f"Gamma shape {Gamma.shape} does not match m = {m}")
    return gamma, Gamma, m


# ---------------------------------------------------------------------------
# Grassmann-side quantities as linear maps on the density's coefficients

class _LinearMap(NamedTuple):
    """A linear map kappa -> array of `shape`: out = W @ (M @ kappa.to_vector()).

    `moments` (M) holds the rows star_trace(kappa, t) of the `n_moments`
    monomials t the output reads; `combine` (W) sums them, with coefficients,
    into the flattened output.  Both are read-only COO triples (row, col, val)
    whose duplicate entries add up; the table maps share `_moment_map`'s M.
    """

    moments: tuple
    n_moments: int
    combine: tuple
    shape: tuple

    def combine_moments(self, moments: np.ndarray) -> np.ndarray:
        """The map on kappa's moments, M @ kappa.to_vector()."""
        return _coo_apply(*self.combine, moments, math.prod(self.shape)).reshape(self.shape)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """The map on a coefficient vector, kappa.to_vector()."""
        return self.combine_moments(_coo_apply(*self.moments, vec, self.n_moments))


def _linear_map(entries, shape: tuple, m: int, shared: bool = False) -> _LinearMap:
    """The map out[row] = sum of coeff * star_trace(kappa, t) over (row, t, coeff) entries.

    A shared map reads the moments of `_moment_map(m)`, which must cover
    every t; any other gets moment rows of just the t its entries name.
    """
    moments, index = _moment_map(m) if shared else (None, {})
    rows, cols, vals = [], [], []
    for row, t, coeff in entries:
        rows.append(row)
        cols.append(index[t] if shared else index.setdefault(t, len(index)))
        vals.append(coeff)
    if not shared:
        moments = _read_only(*moment_rows(index, m))
    combine = _read_only(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
                         np.array(vals, dtype=complex))
    return _LinearMap(moments, len(index), combine, shape)


@functools.lru_cache(maxsize=ELEMENT_CAP)
def _moment_map(m: int) -> tuple[tuple, dict]:
    """The moment rows of every table quantity at m, and each monomial's row.

    The monomials are those with |bar| = |unbar| <= 2, which is all that the
    pdms and the five table forms read (the anticommutator cancels the T1/T2
    three-body terms exactly): the unit first, so moment 0 is the trace; then
    pbar_{k+1} p_{l+1} at row 1 + k*m + l; then the two-body monomials.
    """
    ones = [1 << k for k in range(m)]
    twos = [(1 << k) | (1 << l) for k, l in combinations(range(m), 2)]
    monomials = [Monomial(0, 0)] + [Monomial(bar, ub) for block in (ones, twos)
                                    for bar in block for ub in block]
    return _read_only(*moment_rows(monomials, m)), {t: r for r, t in enumerate(monomials)}


def _moments(vec: np.ndarray, m: int) -> np.ndarray:
    """The `_moment_map` moments of a density's to_vector(), once its trace is checked to be 1."""
    rows, index = _moment_map(m)
    moments = _coo_apply(*rows, vec, len(index))
    if abs(moments[0] - 1.0) > DENSITY_TRACE_TOL:
        raise ValueError(f"density element is not normalized: trace_integral = {complex(moments[0])}")
    return moments


def _form_entries(probes: list[GrassmannElement], mode: str, m: int):
    """F[a, b] = tr(kappa * X_ab), X_ab = b_a* * b_b (+ b_b * b_a*), expanded once.

    Runs the uncapped `_star_terms` on the probes' terms, with no element
    per pair: the table probes are words of at most three generators, cheap
    at any m; quadratic_form_matrix checks STAR_CAP for any probes itself.
    """
    n = len(probes)
    terms = [b.terms for b in probes]
    bstars = [involution(b).terms for b in probes]
    for a in range(n):
        for b in range(n):
            x = _star_terms(bstars[a], terms[b], m)
            if mode == "anticommutator":
                for t, c in _star_terms(terms[b], bstars[a], m).items():
                    _acc(x, t, c)
            for t, c in x.items():
                yield a * n + b, t, c


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
    out = []
    full = 1 << m
    for bar in range(full):
        if bar.bit_count() > order:
            continue
        for ub in range(full):
            if ub.bit_count() > order:
                continue
            out.append(monomial_element(Monomial(bar, ub), m))
    return out


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
    gamma = _require_hermitian(gamma, "gamma")
    eigs = np.linalg.eigvalsh(gamma)
    margin = float(min(eigs.min(), 1.0 - eigs.max()))
    tol = psd_tolerance(gamma)
    return ConditionReport("first-order", margin, margin >= -tol, tol, "closed-form")


def q_condition_matrix(gamma: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    eye = np.eye(m)
    ex = fock.exchange_matrix(m)
    x = np.eye(m * m) - np.kron(gamma, eye) - np.kron(eye, gamma)
    return Gamma + (np.eye(m * m) - ex) @ x


def g_condition_matrix(gamma: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """Covariance form whose positivity is the one-body-operator condition.

    M[(k,l),(m,n)] = delta_km gamma[n,l] - Gamma[(k,n),(m,l)] - gamma[k,l] gamma[n,m].
    """
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    g4 = Gamma.reshape(m, m, m, m)
    t1 = np.einsum("km,nl->klmn", np.eye(m), gamma)
    t2 = g4.transpose(0, 3, 2, 1)
    t3 = np.einsum("kl,nm->klmn", gamma, gamma)
    return (t1 - t2 - t3).reshape(m * m, m * m)


def check_P(gamma: np.ndarray, Gamma: np.ndarray, tol: float | None = None) -> ConditionReport:
    return closed_form_report("P", gamma, Gamma, tol)


def check_Q(gamma: np.ndarray, Gamma: np.ndarray, tol: float | None = None) -> ConditionReport:
    return closed_form_report("Q", gamma, Gamma, tol)


def check_G(gamma: np.ndarray, Gamma: np.ndarray, tol: float | None = None) -> ConditionReport:
    return closed_form_report("G", gamma, Gamma, tol)


# ---------------------------------------------------------------------------
# third-order conditions

def _antisym_first_pair(T: np.ndarray) -> np.ndarray:
    """Antisymmetric part of every slice T[:, :, k] in its first two indices."""
    return (T - T.transpose(1, 0, 2)) / 2


def require_totally_antisymmetric(T: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    T = np.asarray(T, dtype=complex)
    if T.ndim != 3 or len(set(T.shape)) != 1:
        raise ValueError(f"expected an m x m x m tensor, got shape {T.shape}")
    scale = 1.0 + float(np.max(np.abs(T)))
    if (np.max(np.abs(T + T.transpose(1, 0, 2))) > tol * scale
            or np.max(np.abs(T + T.transpose(0, 2, 1))) > tol * scale):
        raise ValueError("tensor is not totally antisymmetric")
    return T


def t1_bilinear(Tp: np.ndarray, T: np.ndarray, gamma: np.ndarray, Gamma: np.ndarray) -> complex:
    """Sesquilinear extension of the T1 value, antilinear in the first tensor."""
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    total = 0j
    for q in range(m):
        tpq = Tp[:, q, :]
        tq = T[:, q, :]
        prod = tpq.conj().T @ tq
        total += 2 * np.trace(prod) - 6 * np.trace(prod @ gamma)
        total += 3 * (tq.reshape(-1) @ (Gamma @ tpq.conj().reshape(-1)))
    return complex(total)


def check_T1(gamma: np.ndarray, Gamma: np.ndarray, T: np.ndarray) -> float:
    """Closed-form scalar of the first third-order condition for one probe tensor."""
    T = require_totally_antisymmetric(T)
    val = t1_bilinear(T, T, gamma, Gamma)
    return float(val.real)


def _t1_probe_elements(m: int) -> list[GrassmannElement]:
    out = []
    for i, j, k in combinations(range(1, m + 1), 3):
        out.append(multiply(multiply(psi(i, m), psi(j, m)), psi(k, m)))
    return out


def _t1_unit_tensor(triple: tuple[int, int, int], m: int) -> np.ndarray:
    """Antisymmetric tensor E with tau(E) equal to the plain ordered monomial."""
    E = np.zeros((m, m, m), dtype=complex)
    i, j, k = triple
    perms = [((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
             ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1)]
    for (a, b, c), s in perms:
        E[a, b, c] = s / 6.0
    return E


def t1_form_from_pdms(gamma: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """T1 anticommutator form over ordered cubic probes, built from (gamma, Gamma).

    Entry (a, b) is 3 * t1_bilinear(E_a, E_b) for the unit tensors E, read
    off the cached index map `_index_map("T1", m)`.
    """
    return _index_form("T1", gamma, Gamma)


def check_T1_full(kappa: GrassmannElement) -> ConditionReport:
    """T1 as min eigenvalue of the anticommutator form over all cubic probes."""
    return condition_form_report(kappa, "T1")


def t2_bilinear(Tp: np.ndarray, ap: np.ndarray, T: np.ndarray, a: np.ndarray,
                gamma: np.ndarray, Gamma: np.ndarray) -> complex:
    """Sesquilinear extension of the generalized T2 value."""
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    g4 = Gamma.reshape(m, m, m, m)
    TpA = _antisym_first_pair(Tp)
    TA = _antisym_first_pair(T)
    total = 0j
    for q in range(m):
        total += np.vdot(Tp[:, :, q].reshape(-1), Gamma @ T[:, :, q].reshape(-1))
    tr_q1 = np.einsum("jqk,qmn,njkm->", TpA.conj(), TA, g4)
    q2 = np.einsum("qpi,qpj->ij", TpA.conj(), T)
    q3 = np.einsum("qji,q->ij", TpA.conj(), a) + np.einsum("qij,q->ij", TA, np.conj(ap))
    total += 4 * tr_q1
    total += 2 * np.einsum("ij,ji->", q2 + q3, gamma)
    total += np.vdot(ap, a)
    return complex(total)


def check_T2_generalized(gamma: np.ndarray, Gamma: np.ndarray, T: np.ndarray,
                         a: np.ndarray) -> float:
    """Closed-form scalar of the generalized second third-order condition."""
    T = np.asarray(T, dtype=complex)
    a = np.asarray(a, dtype=complex)
    m = np.asarray(gamma).shape[0]
    if T.shape != (m, m, m):
        raise ValueError(f"tensor shape {T.shape} does not match m = {m}")
    if a.shape != (m,):
        raise ValueError(f"vector shape {a.shape} does not match m = {m}")
    val = t2_bilinear(T, a, T, a, gamma, Gamma)
    return float(val.real)


def _t2_probes(m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    out = []
    for i, j in combinations(range(m), 2):
        for k in range(m):
            E = np.zeros((m, m, m), dtype=complex)
            E[i, j, k] = 0.5
            E[j, i, k] = -0.5
            out.append((E, np.zeros(m, dtype=complex)))
    for i in range(m):
        a = np.zeros(m, dtype=complex)
        a[i] = 1.0
        out.append((np.zeros((m, m, m), dtype=complex), a))
    return out


def _t2_probe_elements(m: int) -> list[GrassmannElement]:
    out = []
    for i, j in combinations(range(1, m + 1), 2):
        for k in range(1, m + 1):
            out.append(multiply(multiply(psibar(i, m), psibar(j, m)), psi(k, m)))
    for i in range(1, m + 1):
        out.append(psibar(i, m))
    return out


def t2_form_from_pdms(gamma: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """Generalized T2 anticommutator form over cubic and linear probes.

    Entry (x, y) is t2_bilinear(probe_x, probe_y) for the probes of
    `_t2_probes`, read off the cached index map `_index_map("T2", m)`.
    """
    return _index_form("T2", gamma, Gamma)


def check_T2_full(kappa: GrassmannElement) -> ConditionReport:
    """Generalized T2 as min eigenvalue of the anticommutator form."""
    return condition_form_report(kappa, "T2")


def t2a_value(gamma: np.ndarray, Gamma: np.ndarray, T: np.ndarray) -> float:
    """Specialized T2 value for pair-antisymmetric tensors with no linear part.

    The trace terms use the reindexed slices [Ttilde_k]_{ij} = [T_j]_{ik};
    the pair-space form keeps the original slices [T_q]_{ij} = T[i, j, q],
    which is the reading consistent with the generalized value (the
    rearranged statement with Ttilde in all three terms is not).
    """
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    T = np.asarray(T, dtype=complex)
    Tt = T.transpose(0, 2, 1)  # Ttilde[i, j, k] = T[i, k, j]
    g4 = Gamma.reshape(m, m, m, m)
    total = 0j
    for q in range(m):
        v = T[:, :, q].reshape(-1)
        total += np.vdot(v, Gamma @ v)
        tq = Tt[:, :, q]
        # tr{(Ttilde_q^* (x) Ttilde_q) Gamma} with the adjoint on the first leg
        total += 4 * np.einsum("ki,jl,klij->", tq.conj(), tq, g4)
        total += 2 * np.trace(tq.conj().T @ tq @ gamma)
    return float(total.real)


# ---------------------------------------------------------------------------
# closed third-order forms as index maps on (Gamma, gamma)

def _t1_stacks(m: int) -> dict:
    E = np.array([_t1_unit_tensor(t, m) for t in combinations(range(m), 3)],
                 dtype=complex).reshape(-1, m, m, m)
    return {"E": E}


def _t2_stacks(m: int) -> dict:
    probes = _t2_probes(m)
    T = np.array([p[0] for p in probes])
    return {"T": T, "TA": (T - T.transpose(0, 2, 1, 3)) / 2, "a": np.array([p[1] for p in probes])}


# Each closed form is F[x, y] = sum over its terms (x stack, y stack, spec,
# scale) of scale * sum conj(X[x, ...]) Y[y, ...] v[...], the einsum-style
# spec naming the indices of X, Y and the source v: Gamma[(i, j), (k, l)]
# for four letters, gamma for two, the constant 1 for none.  T1 is the sum
# over q of 3 (2 E_q^* E_q - 6 E_q^* E_q gamma + 3 E_q^* Gamma E_q), T2 that
# of t2_bilinear, term by term.
_INDEX_FORMS = {
    "T1": (_t1_stacks, (("E", "E", "iqk,iqk,", 6), ("E", "E", "iqk,iqp,pk", -18),
                        ("E", "E", "jql,iqk,ikjl", 9))),
    "T2": (_t2_stacks, (("T", "T", "ijq,klq,ijkl", 1), ("TA", "TA", "jqk,qab,bjka", 4),
                        ("TA", "T", "jqk,jqp,pk", 2), ("TA", "a", "qji,q,ji", 2),
                        ("a", "TA", "q,qij,ji", 2), ("a", "a", "q,q,", 1))),
}


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
    """T1's or T2's form at m as one COO map on v = [Gamma.ravel(), gamma.ravel(), 1].

    Returns the read-only (row, source, coeff) triple, whose duplicate
    entries add up, and the probe count n: the triple applied to v is the
    raveled n x n form before Hermitisation.  At most 16 maps are cached.
    """
    stack_fn, terms = _INDEX_FORMS[condition]
    nonzeros = {}
    for name, stack in stack_fn(m).items():
        nz = np.nonzero(stack)
        nonzeros[name] = (nz[0], nz[1:], stack[nz])
        n = len(stack)
    entries = [_term_entries(nonzeros[x], nonzeros[y], spec, scale, n, m)
               for x, y, spec, scale in terms]
    return _read_only(*(np.concatenate(part) for part in zip(*entries))), n


def _index_form(condition: str, gamma: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """The closed form of T1 or T2, (F + F^H)/2 with F the cached index map applied to (Gamma, gamma)."""
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    (rows, src, coeff), n = _index_map(condition, m)
    v = np.concatenate((Gamma.ravel(), gamma.ravel(), [1.0]))
    F = _coo_apply(rows, src, coeff, v, n * n).reshape(n, n)
    return (F + F.conj().T) / 2


# ---------------------------------------------------------------------------
# the condition table

class Condition(NamedTuple):
    """closed(gamma, Gamma) and the `mode` form of probes(m) on kappa are one matrix."""

    closed: Callable[[np.ndarray, np.ndarray], np.ndarray]
    probes: Callable[[int], list[GrassmannElement]]
    mode: str


def _pair_probes(generator, m: int) -> list[GrassmannElement]:
    """The m * m products generator_k generator_l, in pair order (k, l) -> k*m + l."""
    return [multiply(generator(k, m), generator(l, m))
            for k in range(1, m + 1) for l in range(1, m + 1)]


def _one_body_probes(m: int) -> list[GrassmannElement]:
    """The monomials pbar_{k+1} p_{l+1}, in pair order; their means are gamma[l, k]."""
    return [monomial_element(Monomial(1 << k, 1 << l), m) for k in range(m) for l in range(m)]


CONDITIONS = {
    "P": Condition(lambda gamma, Gamma: _validate_pair(gamma, Gamma)[1],
                   lambda m: _pair_probes(psi, m), "plain"),
    "Q": Condition(q_condition_matrix, lambda m: _pair_probes(psibar, m), "plain"),
    "G": Condition(g_condition_matrix, _one_body_probes, "plain"),
    "T1": Condition(t1_form_from_pdms, _t1_probe_elements, "anticommutator"),
    "T2": Condition(t2_form_from_pdms, _t2_probe_elements, "anticommutator"),
}


def closed_form_report(condition: str, gamma: np.ndarray, Gamma: np.ndarray,
                       tol: float | None = None) -> ConditionReport:
    """Margin of a table condition's closed-form matrix in (gamma, Gamma)."""
    return report_from_form(condition, CONDITIONS[condition].closed(gamma, Gamma),
                            "closed-form", tol)


def _form_report(condition: str, moments: np.ndarray, m: int) -> ConditionReport:
    """Margin of a table condition's star-product form, combined from the shared moments.

    G's probes are centred, b_a - <b_a>, so its form is the plain form minus
    outer(conj(s), s) with s_a = <b_a>, the one-body moments.
    """
    F = _probe_set_map(condition, m).combine_moments(moments)
    if condition == "G":
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
        return {**asdict(self), "all_pass": self.all_pass}


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
    """condition_battery with kappa given by its moments at m, or None."""
    reports = [first_order_report(gamma)]
    for name in CONDITIONS:
        if moments is not None and name in ("T1", "T2"):
            reports.append(_form_report(name, moments, m))
        elif Gamma is not None:
            reports.append(closed_form_report(name, gamma, Gamma))
    return reports


def fuzz_conditions(m: int, trials: int, seed: int, sector: int | None = None) -> FuzzSummary:
    """Run the condition battery on `trials` random genuine densities.

    Per-trial seeds derive deterministically from the master seed, so the
    summary is reproducible.  Each density's moments are computed once and
    serve its pdms and its Grassmann forms.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if m > fock.FOCK_CAP:
        raise ValueError(f"mode count {m} exceeds oracle cap {fock.FOCK_CAP}")
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
