"""Reduced density matrices of Grassmann densities and representability checks.

Each condition P, Q, G, T1, T2 is positivity of one form with two independent
realizations, cross-validated against each other.  One table, CONDITIONS in
`closed`, gives each name its probes b_a, named as generator words, the mode
of its form, F[a, b] = <b_a* b_b> (plain: P, Q, G) or <b_a* b_b + b_b b_a*>
(anticommutator: T1, T2), and whether it is centred: G subtracts the product
of its probes' means on both sides.  The closed-form side, which derives each
form in the one- and two-body matrices (gamma, Gamma) from the same words by
normal ordering, with its index maps and the battery, lives in `closed`;
this module adds the star-product side.  It imports the table from `closed`
and the element kernel (`kernel`), not the public element operations
(`algebra`), since each form is a cached map on the coefficient vector, and
the Fock oracle (`fock`) only inside `fuzz_conditions`, its one user.
The Grassmann-side pdms and forms are linear in the density, so each is a
fixed combination of its moments star_trace(kappa, t), |bar| = |unbar| <= 2
for t, which the kernel's moment layer reads off the coefficient vector with
one cached map per m (`kernel._moment_map`, `kernel._moments`); moment 0 is
the trace that every density check reads, gamma is `kernel._pdm1` of the
moments, and Gamma is P's form transposed.
A row's word probes become elements here (`_word_probes`), and its form is
one cached map per m (`_probe_set_map`).

Index conventions (0-based in code): gamma[k, l] is the expectation of
pbar_{l+1} * p_{k+1}; two-body indices flatten row-major, (k, l) -> k*m + l,
and Gamma[(i, j), (k, l)] is the expectation of the normal-ordered word
pbar_{l+1} pbar_{k+1} p_{i+1} p_{j+1}.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .closed import (
    CONDITIONS,
    ConditionReport,
    _first_order,
    _index_form,
    _json_margin,
    _min_eigenvalue,
    _source,
    _validate_pair,
    battery,
    psd_tolerance,
)
from .kernel import (
    GrassmannElement,
    Monomial,
    _generators,
    _involution_terms,
    _LinearMap,
    _linear_map,
    _moments,
    _mono_products,
    _pair_sums,
    _pdm1,
    _star_pairs,
    _sum_terms,
)
from .limits import (
    ELEMENT_CAP,
    FOCK_CAP,
    FORM_HERMITIAN_TOL,
    STAR_CAP,
    _check_m,
    _require_hermitian,
    _scale,
)


def report_from_form(condition: str, matrix: np.ndarray, method: str,
                     tol: float | None = None) -> ConditionReport:
    """Hermiticity-checked minimum-eigenvalue report for a form matrix."""
    herm = (matrix + matrix.conj().T) / 2
    dev = np.max(np.abs(matrix - herm)) if matrix.size else 0.0
    if not dev / _scale(matrix) <= FORM_HERMITIAN_TOL:
        raise ValueError(f"{condition}: form matrix is not Hermitian (deviation {dev:.3e})")
    return ConditionReport(condition, _min_eigenvalue(herm),
                           psd_tolerance(matrix) if tol is None else tol, method)


# ---------------------------------------------------------------------------
# Grassmann-side forms as linear maps on the density's coefficients

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


def _word_probes(words: list, m: int) -> list[GrassmannElement]:
    """The wedge products of generator words, in order, numbered as in `kernel._generators`.

    Each is one monomial up to sign, or zero where a generator repeats; the
    words of each length take one `_mono_products` call per word position.
    """
    gens = _generators(m)
    probes = [GrassmannElement(m, {})] * len(words)
    for length in {len(w) for w in words}:
        at = np.array([k for k, w in enumerate(words) if len(w) == length])
        group = np.array([words[k] for k in at], dtype=np.intp)
        live, index, sign = np.arange(len(group)), gens[group[:, 0]], np.ones(len(group), dtype=np.intp)
        for position in group.T[1:]:
            pair, index, more = _mono_products(index, gens[position[live]], m)
            live, sign = live[pair], sign[pair] * more
        for k, w in enumerate(at[live].tolist()):
            probes[w] = GrassmannElement._from_arrays(m, index[k:k + 1], sign[k:k + 1].astype(complex))
    return probes


@functools.lru_cache(maxsize=16)
def _probe_set_map(condition: str, m: int) -> _LinearMap:
    """A table condition's form at one m on its word probes and the shared moments; 16 are cached."""
    row = CONDITIONS[condition]
    probes = _word_probes(row.words(m), m)
    return _linear_map(_form_entries(probes, row.mode, m), (len(probes),) * 2, m, shared=True)


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
    _check_m(m, ELEMENT_CAP)
    masks = [x for x in range(1 << m) if x.bit_count() <= order]
    return [GrassmannElement(m, {Monomial(bar, ub): 1 + 0j}) for bar in masks for ub in masks]


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


def check_P(gamma: np.ndarray, Gamma: np.ndarray, tol: float | None = None) -> ConditionReport:
    return closed_form_report("P", gamma, Gamma, tol)


def check_Q(gamma: np.ndarray, Gamma: np.ndarray, tol: float | None = None) -> ConditionReport:
    return closed_form_report("Q", gamma, Gamma, tol)


def check_G(gamma: np.ndarray, Gamma: np.ndarray, tol: float | None = None) -> ConditionReport:
    return closed_form_report("G", gamma, Gamma, tol)


# ---------------------------------------------------------------------------
# third-order conditions

def t1_form_from_pdms(gamma: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """T1 anticommutator form over the cubic words p_i p_j p_k, i < j < k, from `closed._index_map`."""
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    return _index_form("T1", m, _source(gamma, Gamma))


def check_T1_full(kappa: GrassmannElement) -> ConditionReport:
    """T1 as min eigenvalue of the anticommutator form over all cubic probes."""
    return condition_form_report(kappa, "T1")


def t2_form_from_pdms(gamma: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """Generalized T2 anticommutator form over cubic and linear probes, from `closed._index_map`."""
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    return _index_form("T2", m, _source(gamma, Gamma))


def check_T2_full(kappa: GrassmannElement) -> ConditionReport:
    """Generalized T2 as min eigenvalue of the anticommutator form."""
    return condition_form_report(kappa, "T2")


# ---------------------------------------------------------------------------
# table condition reports

def closed_form_report(condition: str, gamma: np.ndarray, Gamma: np.ndarray,
                       tol: float | None = None) -> ConditionReport:
    """Margin of a table condition's closed-form matrix in (gamma, Gamma).

    `_index_form` is Hermitian by construction, so, as in `closed.battery`,
    it goes straight to one eigensolve.
    """
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    F = _index_form(condition, m, _source(gamma, Gamma))
    return ConditionReport(condition, _min_eigenvalue(F), psd_tolerance(F) if tol is None else tol,
                           "closed-form")


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

class FuzzSummary(NamedTuple):
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
                "worst_margins": {k: _json_margin(v) for k, v in self.worst_margins.items()},
                "pdm_max_dev": self.pdm_max_dev, "contraction_max_dev": self.contraction_max_dev,
                "failures": self.failures, "all_pass": self.all_pass}


def condition_battery(gamma: np.ndarray, Gamma: np.ndarray | None = None,
                      kappa: GrassmannElement | None = None) -> list[ConditionReport]:
    """First-order, then the table conditions in order: the battery of check and fuzz.

    P/Q/G run in closed form when Gamma is given.  T1/T2 run on kappa's
    Grassmann form when kappa is given and in closed form otherwise; kappa
    must have gamma's generator count.  Without kappa this is `closed.battery`.
    """
    if kappa is None:
        return battery(gamma, Gamma)
    m = len(_require_hermitian(gamma, "gamma"))
    if kappa.m != m:
        raise ValueError(f"kappa has m = {kappa.m}, but gamma has m = {m}")
    moments = _moments(kappa.to_vector(), m)
    return battery(gamma, Gamma, lambda name: _form_report(name, moments, m))


def fuzz_conditions(m: int, trials: int, seed: int, sector: int | None = None) -> FuzzSummary:
    """Run the condition battery on `trials` random genuine densities.

    Per-trial seeds derive deterministically from the master seed, so the
    summary is reproducible: trial k draws from SeedSequence(seed,
    spawn_key=(k,)), the k-th child of `SeedSequence(seed).spawn`, built
    when the trial starts.  Each density's moments are computed once and
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
    for k in range(trials):
        rho = fock.random_density(m, np.random.SeedSequence(seed, spawn_key=(k,)), sector=sector)
        moments = _moments(fock.from_operator(rho).to_vector(), m)
        gamma = _pdm1(moments, m)
        Gamma = _pdm2(moments, m)
        gamma_o, Gamma_o = fock.pdms_from_rho(rho)
        pdm_dev = max(pdm_dev, float(np.max(np.abs(gamma - gamma_o))),
                      float(np.max(np.abs(Gamma - Gamma_o))))
        if sector is not None and sector >= 2:
            cdev_max = max(cdev_max, float(fock.contraction_check(rho)))
        for rep in battery(gamma, Gamma, lambda name: _form_report(name, moments, m)):
            prev = worst.get(rep.condition)
            if prev is None or rep.margin < prev:
                worst[rep.condition] = rep.margin
            if not rep.passed:
                failures += 1
    return FuzzSummary(m, trials, seed, sector, worst, pdm_dev, cdev_max, failures)
