"""Quasifree Grassmann densities: construction from a one-body matrix, Wick
pairing sums, and verification of the factorization property.

A quasifree density is written down in the eigenbasis of the target one-body
matrix in closed form, as the expanded star product of per-mode factors, and
rotated to the original generators once.  Eigenvalues at the boundary of
[0, 1] are snapped to exact projector factors (empty or occupied mode);
interior eigenvalues lambda use the exponent q = ln((1 - lambda)/lambda), so
each factor is (e^{-q} - 1) nbar n + 1 up to normalization.

Verification compares, word by word and in the original generators,
star-product expectations of the density with Wick pairing sums of its
one-body matrix; nothing is rotated back.  The star side is linear in the
density, so for each (m, max_points) it is built once as a sparse map over
the generator words, from the Grassmann kernels alone (`_star_terms`,
`algebra.moment_rows`), and cached; the Wick side gathers all words of one
length from a cached generator-index table and sums over the signed perfect
matchings.  `star_word_expectation` and `wick_expectation` are the per-word
references they are tested against.  Everything here runs up to
QUASIFREE_CAP = 8 generators, past the star product's cap, since no step
multiplies two full elements.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, permutations

import numpy as np

from .algebra import (
    GrassmannElement,
    Monomial,
    _check_m,
    _half_pair_sign,
    _star_terms,
    change_generators,
    psi,
    psibar,
    star,
    star_trace,
    trace_integral,
    unit,
)
from .conditions import _LinearMap, _linear_map, _require_hermitian

BOUNDARY_TOL = 1e-10
QUASIFREE_CAP = 8


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

    gamma must be Hermitian with spectrum in [-tol, 1+tol] and m <= QUASIFREE_CAP.
    Returns the spec and the normalized density element expressed in the
    original generators; its extracted one-body matrix reproduces gamma.  The
    eigenbasis element is written down in closed form
    (`mode_product_expansion`, no star products), normalized, and rotated
    to the original generators by one `change_generators`.
    """
    gamma = _require_hermitian(gamma, "gamma")
    m = gamma.shape[0]
    _check_m(m, QUASIFREE_CAP)
    lam, u = np.linalg.eigh(gamma)
    if lam.min() < -tol or lam.max() > 1.0 + tol:
        raise ValueError(f"one-body spectrum [{lam.min():.3e}, {lam.max():.3e}] leaves [0, 1]")
    lam = np.clip(lam, 0.0, 1.0)
    qs = np.empty(m)
    r = np.zeros(m)
    for i, li in enumerate(lam):
        if li <= tol:
            qs[i] = math.inf
            r[i] = -1.0
        elif li >= 1.0 - tol:
            qs[i] = -math.inf
        else:
            qs[i] = math.log((1.0 - li) / li)
            r[i] = li / (1.0 - li) - 1.0
    element = mode_product_expansion(r, occupied=np.isneginf(qs))
    element = (1.0 / trace_integral(element)) * element
    kappa = change_generators(element, u.conj().T)
    return QuasifreeSpec(m, u, lam, qs), kappa


def mode_product_expansion(r, occupied=None) -> GrassmannElement:
    """Closed-form expansion of the star product of (r_i nbar_i n_i + 1) factors.

    Equals sum over index subsets Q of (-1)^{s_Q} (prod_{i in Q} r_i) times
    the diagonal monomial on Q.  Modes flagged in the boolean `occupied`
    take the factor nbar_i n_i instead, which has no unit term: only the
    subsets Q holding every occupied mode remain, and those modes contribute
    no r_i.
    """
    r = np.asarray(r, dtype=complex)
    m = len(r)
    occ = 0 if occupied is None else sum(1 << i for i, o in enumerate(occupied) if o)
    free = ((1 << m) - 1) & ~occ
    terms = {}
    sub = free
    while True:
        prodr = 1.0 + 0j
        mask = sub
        while mask:
            low = mask & -mask
            prodr *= r[low.bit_length() - 1]
            mask ^= low
        q = sub | occ
        val = _half_pair_sign(q.bit_count()) * prodr
        if val != 0:
            terms[Monomial(q, q)] = val
        if sub == 0:
            break
        sub = (sub - 1) & free
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
    map is built.  Factors and products are maps Monomial -> coefficient, no
    elements; the factors are words of at most max_points generators, so
    the uncapped `_star_terms` serves every m up to QUASIFREE_CAP.
    """
    gens = {(i, barred): (psibar(i, m) if barred else psi(i, m)).terms
            for i in range(1, m + 1) for barred in (True, False)}
    prefixes = {(): unit(m).terms}
    for row, word in enumerate(generator_words(m, max_points)):
        product = _star_terms(prefixes[word[:-1]], gens[word[-1]], m)
        if len(word) < max_points:
            prefixes[word] = product
        for t, c in product.items():
            yield row, t, c


@functools.lru_cache(maxsize=8)
def _star_word_map(m: int, max_points: int) -> _LinearMap:
    """kappa -> star_trace(kappa, g1 * ... * gk) over every word; the cache holds at most 8 maps."""
    _check_m(m, QUASIFREE_CAP)
    if max_points < 1:
        raise ValueError(f"max_points must be at least 1, got {max_points}")
    return _linear_map(_word_product_entries(m, max_points), (_n_words(m, max_points),), m)


def _n_words(m: int, max_points: int) -> int:
    return sum(math.perm(2 * m, k) for k in range(1, max_points + 1))


def _clamp_points(m: int, max_points: int) -> int:
    """max_points capped at 2m: no word of distinct generators is longer, so no word is lost."""
    return min(max_points, 2 * m)


def words_checked(m: int, max_points: int) -> int:
    """Number of generator words `verify_quasifree` compares at this m and max_points."""
    return _star_word_map(m, _clamp_points(m, max_points)).shape[0]


@functools.cache
def _matchings(k: int) -> tuple:
    """Signed perfect matchings of positions 0..k-1, as (sign, ((p, q), ...)) with p < q.

    Position 0 pairs with each later position in turn, with the alternating
    sign of the recursion in `wick_expectation`: 1, 3 and 15 matchings for
    k = 2, 4 and 6.
    """
    if k == 0:
        return ((1, ()),)
    out = []
    for pos in range(1, k):
        rest = [p for p in range(1, k) if p != pos]
        for sign, pairs in _matchings(k - 2):
            out.append((-sign if pos % 2 == 0 else sign,
                        ((0, pos),) + tuple((rest[p], rest[q]) for p, q in pairs)))
    return tuple(out)


@functools.lru_cache(maxsize=8)
def _word_table(m: int, max_points: int) -> tuple:
    """(first row, (n, k) generator-index table) of the even-length words, k = 2, 4, ...

    Generators are numbered as in generator_words: pbar_i is i - 1 and p_i is
    m + i - 1, and each table lists its words in generator_words order, so
    its rows start at `first row` of the word map.
    """
    out = []
    first = 0
    for k in range(1, max_points + 1):
        n = math.perm(2 * m, k)
        if k % 2 == 0:
            table = np.fromiter(chain.from_iterable(permutations(range(2 * m), k)),
                                np.uint8, n * k).reshape(n, k)
            table.setflags(write=False)
            out.append((first, table))
        first += n
    return tuple(out)


def _wick_word_values(spec: QuasifreeSpec, max_points: int) -> np.ndarray:
    """Pairing sums of every generator word, in the original generators, all words at once.

    With gamma = u diag(lambda) u^dagger the two-point values are
    <pbar_i p_j> = gamma[j, i] and <p_j pbar_i> = delta_ij - gamma[j, i];
    same-type pairs give 0.  Odd words vanish; the words of each even length
    k are gathered from `_word_table` and summed over the signed perfect
    matchings of k positions.
    """
    m = spec.m
    gamma = (spec.u * spec.lambdas) @ spec.u.conj().T
    two_point = np.zeros((2 * m, 2 * m), dtype=complex)
    two_point[:m, m:] = gamma.T
    two_point[m:, :m] = np.eye(m) - gamma
    out = np.zeros(_n_words(m, max_points), dtype=complex)
    for first, table in _word_table(m, max_points):
        k = table.shape[1]
        pair_values = {(p, q): two_point[table[:, p], table[:, q]]
                       for p in range(k) for q in range(p + 1, k)}
        values = out[first:first + len(table)]
        for sign, pairs in _matchings(k):
            term = math.prod(pair_values[pq] for pq in pairs)
            values += term if sign > 0 else -term
    return out


def wick_pdms(gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One- and two-body matrices of the quasifree state of gamma, by Wick's theorem.

    Returns (gamma, Gamma) with Gamma[(i, j), (k, l)] = gamma[i, k] gamma[j, l]
    - gamma[j, k] gamma[i, l], in the conventions of `pdm2_from_density`; a
    closed-form second realization that needs no Fock space at any m.
    """
    gamma = _require_hermitian(gamma, "gamma")
    m = gamma.shape[0]
    Gamma = np.einsum("ik,jl->ijkl", gamma, gamma) - np.einsum("jk,il->ijkl", gamma, gamma)
    return gamma, Gamma.reshape(m * m, m * m)


def verify_quasifree(kappa: GrassmannElement, spec: QuasifreeSpec, max_points: int = 6) -> float:
    """Max deviation between star-product and Wick expectations over all words.

    Compares, on every word of distinct generators up to max_points, the
    integral expectation of kappa itself against the Wick pairing sum of the
    spec's one-body matrix gamma = u diag(lambda) u^dagger, both in the
    original generators; quasifree densities stay at roundoff, generic ones
    do not.  The two sides stay independent: Grassmann kernels on kappa
    against pairings of gamma.  By associativity the star side of word
    g1...gk is star_trace(kappa, g1 * ... * gk), a fixed linear functional,
    so all words are one cached sparse map applied to kappa.to_vector()
    (`_star_word_map`); the Wick side evaluates all words of one length at
    once (`_wick_word_values`).  Neither side rotates kappa.  The map has one
    row per word, sum_k (2m)!/(2m-k)! of them, and its memory grows with
    that count, at about 55-95 bytes a word: with 4 points 0.11 MB for the
    2080 words at m = 4, 0.8 MB for the 13,344 at m = 6 and 4.4 MB for the
    47,296 at m = 8.  With 6 points m = 8 has 6,337,216 words, whose map
    would hold about 0.4 GB at the 60-70 bytes a word measured with 6 points
    at m = 4 and 5.  Raises ValueError when kappa and spec differ in m, when
    m > QUASIFREE_CAP, or when max_points < 1; a max_points above 2m checks
    the same words as 2m.
    """
    if kappa.m != spec.m:
        raise ValueError(f"density has m = {kappa.m} but spec has m = {spec.m}")
    max_points = _clamp_points(spec.m, max_points)
    lhs = _star_word_map(spec.m, max_points).apply(kappa.to_vector())
    rhs = _wick_word_values(spec, max_points)
    return float(np.max(np.abs(lhs - rhs)))


def quasifree_from_lambdas(lambdas, m: int) -> tuple[QuasifreeSpec, GrassmannElement]:
    """Diagonal quasifree density with the given mode occupations."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (m,):
        raise ValueError(f"expected {m} occupations, got shape {lam.shape}")
    return build_quasifree(np.diag(lam).astype(complex))
