"""Quasifree Grassmann densities: construction from a one-body matrix, Wick
pairing sums, and verification of the factorization property.

A quasifree density is assembled in the eigenbasis of the target one-body
matrix as a star product of per-mode factors and rotated back.  Eigenvalues
at the boundary of [0, 1] are snapped to exact projector factors (empty or
occupied mode); interior eigenvalues lambda use the exponent
q = ln((1 - lambda)/lambda), so each factor is (e^{-q} - 1) nbar n + 1 up to
normalization.

Verification compares, word by word, star-product expectations with Wick
pairing sums.  The star side is linear in the density, so for each
(m, max_points) it is built once as a sparse map over the generator words,
from the Grassmann kernels alone (`star`, `algebra.moment_rows`), and cached;
`star_word_expectation` is the per-word reference it is tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .algebra import (
    GrassmannElement,
    Monomial,
    _half_pair_sign,
    change_generators,
    monomial_element,
    psi,
    psibar,
    star,
    star_trace,
    trace_integral,
    unit,
)
from .conditions import _LinearMap, _linear_map, _require_hermitian

BOUNDARY_TOL = 1e-10


@dataclass(frozen=True)
class QuasifreeSpec:
    """Eigendata defining a quasifree density.

    `u` holds the eigenvectors of the one-body matrix as columns; `lambdas`
    the eigenvalues in [0, 1]; `qs` the derived exponents, +inf for empty and
    -inf for occupied boundary modes.
    """

    m: int
    u: np.ndarray
    lambdas: np.ndarray
    qs: np.ndarray

    def boundary_modes(self) -> np.ndarray:
        return ~np.isfinite(self.qs)


def build_quasifree(gamma: np.ndarray, tol: float = BOUNDARY_TOL) -> tuple[QuasifreeSpec, GrassmannElement]:
    """Construct the unique quasifree density with the given one-body matrix.

    gamma must be Hermitian with spectrum in [-tol, 1+tol].  Returns the spec
    and the normalized density element expressed in the original generators;
    its extracted one-body matrix reproduces gamma.
    """
    gamma = _require_hermitian(gamma, "gamma")
    m = gamma.shape[0]
    lam, u = np.linalg.eigh(gamma)
    if lam.min() < -tol or lam.max() > 1.0 + tol:
        raise ValueError(f"one-body spectrum [{lam.min():.3e}, {lam.max():.3e}] leaves [0, 1]")
    lam = np.clip(lam, 0.0, 1.0)
    qs = np.empty(m)
    element = unit(m)
    for i in range(m):
        li = lam[i]
        nbar_n = monomial_element(Monomial(1 << i, 1 << i), m)
        if li <= tol:
            qs[i] = math.inf
            factor = unit(m) - nbar_n
        elif li >= 1.0 - tol:
            qs[i] = -math.inf
            factor = nbar_n
        else:
            qs[i] = math.log((1.0 - li) / li)
            factor = unit(m) + (li / (1.0 - li) - 1.0) * nbar_n
        element = star(element, factor)
    z = trace_integral(element)
    element = (1.0 / z) * element
    kappa = change_generators(element, u.conj().T)
    return QuasifreeSpec(m, u, lam, qs), kappa


def mode_product_expansion(r) -> GrassmannElement:
    """Closed-form expansion of the star product of (r_i nbar_i n_i + 1) factors.

    Equals sum over index subsets Q of (-1)^{s_Q} (prod_{i in Q} r_i) times
    the diagonal monomial on Q.
    """
    r = np.asarray(r, dtype=complex)
    m = len(r)
    terms = {}
    full = (1 << m) - 1
    sub = full
    while True:
        coeff = _half_pair_sign(sub.bit_count())
        prodr = 1.0 + 0j
        mask = sub
        while mask:
            low = mask & -mask
            prodr *= r[low.bit_length() - 1]
            mask ^= low
        val = coeff * prodr
        if val != 0:
            terms[Monomial(sub, sub)] = val
        if sub == 0:
            break
        sub = (sub - 1) & full
    return GrassmannElement(m, terms)


def _two_point(lambdas: np.ndarray, a: tuple[int, bool], b: tuple[int, bool]) -> float:
    """Eigenbasis two-point value of generator a star generator b."""
    (i, bar_a), (j, bar_b) = a, b
    if bar_a == bar_b or i != j:
        return 0.0
    lam = float(lambdas[i - 1])
    return lam if bar_a else 1.0 - lam


def wick_expectation(spec: QuasifreeSpec, word) -> complex:
    """Pairing-sum expectation of a generator word in the eigenbasis.

    `word` is a sequence of (index, barred) pairs with 1-based indices, read
    left to right as a star product.  Odd words vanish; even words expand
    over ordered pairings signed by permutation parity, with number-conserving
    two-point values delta_ij lambda_i and delta_ij (1 - lambda_i).
    """
    word = list(word)
    for idx, _ in word:
        if not 1 <= idx <= spec.m:
            raise ValueError(f"word references generator index {idx} outside [1, {spec.m}]")
    if len(word) % 2:
        return 0j

    lambdas = spec.lambdas

    def pair_sum(items) -> complex:
        if not items:
            return 1.0 + 0j
        head = items[0]
        total = 0j
        sign = 1
        for pos in range(1, len(items)):
            val = _two_point(lambdas, head, items[pos])
            if val:
                rest = items[1:pos] + items[pos + 1:]
                total += sign * val * pair_sum(rest)
            sign = -sign
        return total

    return pair_sum(word)


def generator_words(m: int, max_points: int):
    """All words of distinct generators up to the given length."""
    gens = [(i, True) for i in range(1, m + 1)] + [(i, False) for i in range(1, m + 1)]
    for k in range(1, max_points + 1):
        yield from permutations(gens, k)


def star_word_expectation(kappa: GrassmannElement, word) -> complex:
    """Expectation of a star product of single generators against a density."""
    m = kappa.m
    acc = kappa
    for idx, barred in word[:-1]:
        gen = psibar(idx, m) if barred else psi(idx, m)
        acc = star(acc, gen)
    idx, barred = word[-1]
    last = psibar(idx, m) if barred else psi(idx, m)
    return star_trace(acc, last)


def _word_product_entries(m: int, max_points: int):
    """(row, t, coeff) of each word product g1 * ... * gk, rows in generator_words order.

    Each product is the product of its one-shorter prefix (built earlier, as
    the words come shortest first) and one generator; products of full length
    are never reused, so only the shorter ones are kept, and only while the
    map is built.
    """
    gens = {(i, barred): psibar(i, m) if barred else psi(i, m)
            for i in range(1, m + 1) for barred in (True, False)}
    prefixes = {(): unit(m)}
    for row, word in enumerate(generator_words(m, max_points)):
        product = star(prefixes[word[:-1]], gens[word[-1]])
        if len(word) < max_points:
            prefixes[word] = product
        for t, c in product.terms.items():
            yield row, t, c


@functools.lru_cache(maxsize=8)
def _star_word_map(m: int, max_points: int) -> _LinearMap:
    """kd -> star_trace(kd, g1 * ... * gk) over every word; the cache holds at most 8 maps."""
    if max_points < 1:
        raise ValueError(f"max_points must be at least 1, got {max_points}")
    n_words = sum(math.perm(2 * m, k) for k in range(1, max_points + 1))
    return _linear_map(_word_product_entries(m, max_points), (n_words,), m)


def words_checked(m: int, max_points: int) -> int:
    """Number of generator words `verify_quasifree` compares at this m and max_points."""
    return _star_word_map(m, max_points).shape[0]


def verify_quasifree(kappa: GrassmannElement, spec: QuasifreeSpec, max_points: int = 6) -> float:
    """Max deviation between star-product and Wick expectations over all words.

    Compares, on every word of distinct generators up to max_points, the
    integral expectation of the density rotated to the eigenbasis (kd) against
    the pairing sum; quasifree densities stay at roundoff, generic ones do not.
    By associativity the star side of word g1...gk is star_trace(kd,
    g1 * ... * gk), a fixed linear functional of kd, so all words are one
    cached sparse map applied to kd.to_vector() (`_star_word_map`); the Wick
    side stays the per-word pairing sum.  The map has one row per word,
    sum_k (2m)!/(2m-k)! of them, and its memory grows with that count, at
    about 50-80 bytes a word: 0.11 MB for the 2080 words at m = 4 with 4
    points, 0.8 MB for the 13,344 at m = 6.  Raises ValueError when
    max_points < 1.
    """
    word_map = _star_word_map(spec.m, max_points)
    lhs = word_map.apply(change_generators(kappa, spec.u))
    rhs = np.array([wick_expectation(spec, word) for word in generator_words(spec.m, max_points)],
                   dtype=complex)
    return float(np.max(np.abs(lhs - rhs)))


def quasifree_from_lambdas(lambdas, m: int) -> tuple[QuasifreeSpec, GrassmannElement]:
    """Diagonal quasifree density with the given mode occupations."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (m,):
        raise ValueError(f"expected {m} occupations, got shape {lam.shape}")
    return build_quasifree(np.diag(lam).astype(complex))
