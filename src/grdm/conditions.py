"""Reduced density matrices of Grassmann densities and representability checks.

Each condition P, Q, G, T1, T2 is positivity of one form with two independent
realizations, cross-validated against each other.  One table, CONDITIONS in
`table`, gives each name its probes b_a, named as generator words, the mode
of its form, F[a, b] = <b_a* b_b> (plain: P, Q, G) or <b_a* b_b + b_b b_a*>
(anticommutator: T1, T2), and whether it is centred: G subtracts the product
of its probes' means on both sides.  The closed-form side, which derives each
form in the one- and two-body matrices (gamma, Gamma) from the same words by
normal ordering, with its index maps and its battery, lives in `closed`;
this module adds the star-product side, whose battery (`_star_battery`) runs
every row on a density's moments for `grdm fuzz`, and that command's body,
`run`, which writes through `cli.write_out` and loads no `serialize`.  At
module level it imports json, the table (`table`), the element kernel
(`kernel`) and `limits`, not the public element operations (`algebra`),
since each form is a cached map on the kernel's moments.  `closed` is
imported only inside the closed-form wrappers (`closed_form_report`, with
`check_P/Q/G`, and `t1_form_from_pdms` / `t2_form_from_pdms`), which each
call `closed.pair_form`, and the Fock oracle (`fock`) only inside
`fuzz_conditions`, so `grdm fuzz` compiles neither the CAR
derivation nor anything `grdm check` alone runs.
The Grassmann-side pdms and forms are linear in the density, so each is a
fixed combination of its moments star_trace(kappa, t), |bar| = |unbar| <= 2
for t, which the kernel's moment layer reads off the coefficient vector with
one cached map per m (`kernel._moment_map`, `kernel._moments`); moment 0 is
the trace that every density check reads, gamma is `kernel._pdm1` of the
moments, and Gamma is P's form transposed.
A row's word probes become the kernel's term arrays straight from the words
(`_word_terms`), and its form is one cached COO map per m on those moments
(`_probe_set_map`).

Index conventions (0-based in code): gamma[k, l] is the expectation of
pbar_{l+1} * p_{k+1}; two-body indices flatten row-major, (k, l) -> k*m + l,
and Gamma[(i, j), (k, l)] is the expectation of the normal-ordered word
pbar_{l+1} pbar_{k+1} p_{i+1} p_{j+1}.
"""

from __future__ import annotations

import functools
import json
from typing import NamedTuple

import numpy as np

from .kernel import (
    GrassmannElement,
    _generators,
    _involution_terms,
    _moment_map,
    _moments,
    _mono_products,
    _pair_sums,
    _pdm1,
    _star_pairs,
    _sum_terms,
)
from .limits import (
    FOCK_CAP,
    FORM_HERMITIAN_TOL,
    _check_m,
    _coo_apply,
    _read_only,
    _require_hermitian,
    _scale,
)
from .table import CONDITIONS, ConditionReport, _first_order, _json_margin, _min_eigenvalue, psd_tolerance


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

def _form_entries(terms: tuple, n: int, mode: str, m: int) -> tuple:
    """F[a, b] = tr(kappa * X_ab), X_ab = b_a* * b_b (+ b_b * b_a*), as COO arrays (row, t, coeff).

    `terms` holds the n probes' terms as `_pair_sums` operands (row, index,
    coeff), probe k's in row k.  Row a * n + b holds the expanded X_ab.
    Every term of every b_a* meets every term of every b_b in the
    `_star_pairs` kernel, one call (in bounded chunks) per product order,
    with no element per pair: a table probe is one monomial up to sign, so a
    table form is n**2 monomial pairs, cheap at any m.  The entries are
    sorted by (row, t), one per (row, t), and the terms that cancel exactly,
    such as the anticommutator's three-body terms, are dropped.
    """
    rows, index, coeffs = terms
    bstars = (rows * n, *_involution_terms(index, coeffs, m))
    keys, coeffs = _pair_sums(_star_pairs, bstars, terms, m)
    if mode == "anticommutator":
        more = _pair_sums(_star_pairs, terms, bstars, m)
        keys, coeffs = _sum_terms(np.concatenate((keys, more[0])), np.concatenate((coeffs, more[1])))
    return keys >> (2 * m), keys & ((1 << (2 * m)) - 1), coeffs


def _word_terms(words: list, m: int) -> tuple:
    """The wedge products of generator words as `_pair_sums` operands (row, index, coeff).

    Generators are numbered as in `kernel._generators`.  Each product is one
    monomial up to sign, in the row of its word, or no term where a
    generator repeats; the words of each length take one `_mono_products`
    call per word position, and the rows come out ascending.
    """
    gens = _generators(m)
    parts = [(np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0, dtype=complex),)]
    for length in {len(w) for w in words}:
        at = np.array([k for k, w in enumerate(words) if len(w) == length])
        group = np.array([words[k] for k in at], dtype=np.intp)
        live, index, sign = np.arange(len(group)), gens[group[:, 0]], np.ones(len(group), dtype=np.intp)
        for position in group.T[1:]:
            pair, index, more = _mono_products(index, gens[position[live]], m)
            live, sign = live[pair], sign[pair] * more
        parts.append((at[live], index, sign.astype(complex)))
    rows, index, coeffs = (np.concatenate(part) for part in zip(*parts))
    order = np.argsort(rows, kind="stable")
    return rows[order], index[order], coeffs[order]


@functools.lru_cache(maxsize=16)
def _probe_set_map(condition: str, m: int) -> tuple[tuple, int]:
    """A table condition's plain form at m, a COO map on `_moment_map(m)`'s moments, and its probe count.

    A word that is not normal-ordered is refused: its wedge product drops
    the CAR's contraction.  16 are cached.
    """
    row = CONDITIONS[condition]
    words = row.words(m)
    refusal = f"condition {condition} does not reduce to (gamma, Gamma): "
    if any(a >= m > b for word in words for a, b in zip(word, word[1:])):
        raise ValueError(refusal + "a word that is not normal-ordered drops the CAR's contraction")
    rows, ts, coeffs = _form_entries(_word_terms(words, m), len(words), row.mode, m)
    monomials = _moment_map(m)[1]
    order = np.argsort(monomials)
    cols = order[np.minimum(np.searchsorted(monomials[order], ts), len(order) - 1)]
    if not np.array_equal(monomials[cols], ts):
        raise ValueError(refusal + "an entry reads a monomial outside the shared moment map")
    return _read_only(rows, cols, coeffs), len(words)


def _star_form(condition: str, moments: np.ndarray, m: int) -> np.ndarray:
    """A table condition's star-product form, combined from the shared moments.

    A centred condition's form is the plain form minus outer(conj(s), s)
    with s_a = <b_a>, the one-body moments.
    """
    (rows, cols, coeffs), n = _probe_set_map(condition, m)
    F = _coo_apply(rows, cols, coeffs, moments, n * n).reshape(n, n)
    if CONDITIONS[condition].centred:
        s = moments[1:1 + m * m]
        F -= np.outer(s.conj(), s)
    return F


def pdm1_from_density(kappa: GrassmannElement) -> np.ndarray:
    """One-body matrix gamma[k, l] = <pbar_{l+1} * p_{k+1}> by star-trace."""
    return _pdm1(_moments(kappa.to_vector(), kappa.m), kappa.m)


def pdm2_from_density(kappa: GrassmannElement) -> np.ndarray:
    """Two-body matrix by star-trace: P's form on the density's moments, transposed."""
    return np.ascontiguousarray(_star_form("P", _moments(kappa.to_vector(), kappa.m), kappa.m).T)


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
    """T1 anticommutator form over the cubic words p_i p_j p_k, i < j < k, by `closed.pair_form`."""
    from .closed import pair_form

    return pair_form("T1", gamma, Gamma)


def check_T1_full(kappa: GrassmannElement) -> ConditionReport:
    """T1 as min eigenvalue of the anticommutator form over all cubic probes."""
    return condition_form_report(kappa, "T1")


def t2_form_from_pdms(gamma: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """Generalized T2 anticommutator form over cubic and linear probes, by `closed.pair_form`."""
    from .closed import pair_form

    return pair_form("T2", gamma, Gamma)


def check_T2_full(kappa: GrassmannElement) -> ConditionReport:
    """Generalized T2 as min eigenvalue of the anticommutator form."""
    return condition_form_report(kappa, "T2")


# ---------------------------------------------------------------------------
# table condition reports

def closed_form_report(condition: str, gamma: np.ndarray, Gamma: np.ndarray,
                       tol: float | None = None) -> ConditionReport:
    """Margin of a table condition's closed-form matrix in (gamma, Gamma), as in `closed.battery`."""
    from .closed import pair_form

    F = pair_form(condition, gamma, Gamma)
    return ConditionReport(condition, _min_eigenvalue(F), psd_tolerance(F) if tol is None else tol,
                           "closed-form")


def condition_form_report(kappa: GrassmannElement, condition: str) -> ConditionReport:
    """Margin of a table condition's star-product form on kappa, from the cached map."""
    F = _star_form(condition, _moments(kappa.to_vector(), kappa.m), kappa.m)
    return report_from_form(condition, F, "grassmann-form")


def _star_battery(moments: np.ndarray, m: int, P: np.ndarray) -> list[ConditionReport]:
    """First-order, then every table condition in star-product form: `grdm fuzz`'s battery.

    gamma, like every form, is read off the density's moments.  P is P's
    `_star_form` on the same moments, which the caller has already, since
    its transpose is Gamma; the battery combines every other row's form.
    """
    reports = [_first_order(_require_hermitian(_pdm1(moments, m), "gamma")),
               report_from_form("P", P, "grassmann-form")]
    return reports + [report_from_form(name, _star_form(name, moments, m), "grassmann-form")
                      for name in CONDITIONS if name != "P"]


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


def fuzz_conditions(m: int, trials: int, seed: int, sector: int | None = None) -> FuzzSummary:
    """Run the star-product battery (`_star_battery`) on `trials` random genuine densities.

    Per-trial seeds derive deterministically from the master seed, so the
    summary is reproducible: trial k draws from SeedSequence(seed,
    spawn_key=(k,)), the k-th child of `SeedSequence(seed).spawn`, built
    when the trial starts.  Each density's moments are computed once and
    serve its battery and the pdms compared with the oracle's; P's form is
    combined once, read transposed as Gamma and judged in the battery.  In
    a sector of two or more particles the oracle's pdms also check the
    contraction identity, with N the sector.  The Fock oracle is imported
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
        P = _star_form("P", moments, m)
        gamma, Gamma = _pdm1(moments, m), P.T
        gamma_o, Gamma_o = fock.pdms_from_rho(rho)
        pdm_dev = max(pdm_dev, float(np.max(np.abs(gamma - gamma_o))),
                      float(np.max(np.abs(Gamma - Gamma_o))))
        if sector is not None and sector >= 2:
            cdev_max = max(cdev_max, fock.contraction_check(gamma_o, Gamma_o, sector))
        for rep in _star_battery(moments, m, P):
            prev = worst.get(rep.condition)
            if prev is None or rep.margin < prev:
                worst[rep.condition] = rep.margin
            if not rep.passed:
                failures += 1
    return FuzzSummary(m, trials, seed, sector, worst, pdm_dev, cdev_max, failures)


def run(args) -> int:
    """`grdm fuzz`: `fuzz_conditions` with the command's options, its summary printed and written to --out."""
    from .cli import write_out

    summary = fuzz_conditions(args.m, args.trials, args.seed, sector=args.sector)
    if args.outfile is not None:
        write_out(args.outfile, json.dumps(summary.as_dict(), indent=2))
    if args.verbose or args.outfile is None:
        print(f"fuzz m={summary.m} trials={summary.trials} seed={summary.seed} "
              f"sector={summary.sector}")
        print(f"  pdm max deviation: {summary.pdm_max_dev:.3e}")
        if summary.sector is not None and summary.sector >= 2:
            print(f"  contraction max deviation: {summary.contraction_max_dev:.3e}")
        for name, margin in summary.worst_margins.items():
            print(f"  worst {name:<12} margin {margin:+.3e}")
        print(f"  failures: {summary.failures}")
    return 0 if summary.all_pass else 1
