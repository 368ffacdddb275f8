"""Quasifree Grassmann densities: construction from a one-body matrix, Wick
pairing sums, and verification of the factorization property.

A quasifree density is a normalized Gaussian, written down in closed form:
in the eigenbasis of the target one-body matrix it is the product of the
normalized per-mode factors (2 lambda - 1) nbar n + (1 - lambda), which
holds on all of [0, 1] once eigenvalues within BOUNDARY_TOL of 0 or 1 are
snapped there, and in the original generators each degree-k block of its
coefficients is a compound-matrix product: the k x k minors of the
eigenvectors weighted by the products of those factors over the mode
subsets; coefficients at or below PRUNE_REL_TOL of the largest, the
roundoff a degenerate spectrum leaves in its cancelling sums, are dropped.
The spec keeps the eigenvectors and the eigenvalues, clipped to [0, 1] but
not snapped.  The tests' reference for the build is the eigenbasis product
written as an element and rotated by `change_generators`.

Verification compares, word by word and in the original generators,
star-product expectations of the density with Wick pairing sums of its
one-body matrix; nothing is rotated back.  The star side is linear in the
density, so for each (m, max_points) it is built once, from the Grassmann
kernels alone, as two plain COO maps, the density's moments and their
combine into one value per word, and cached with the flat two-point
indices of every position pair of its even words; the Wick side gathers
all words of one length with one `take` from those indices and sums over
the signed perfect matchings.  The tests keep the per-word references of
both sides, the star fold and the Wick pairing recursion.  Everything here
runs up to QUASIFREE_CAP = 8 generators, past the star product's cap, since
no step multiplies two full elements.

`run` is `grdm quasifree`'s body, and its writer (`_dumps`, `_element`) is
the one element JSON leaf, which no other command compiles.  At module level
the module imports the element kernel (`kernel`) and `limits` alone (`run`
imports `serialize`'s reader and `cli`'s writer): the build writes kappa's
arrays and the verification reads them, so neither needs the public element
operations (`algebra`) or a realization of the conditions.  The spec is a
NamedTuple, so the module does not import `dataclasses`.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import combinations, permutations
from typing import NamedTuple

import numpy as np

from .kernel import (
    GrassmannElement,
    _generators,
    _half_pair_sign,
    _indices,
    _moment_rows,
    _moments,
    _pdm1,
    _split_index,
    _star_pairs,
    _sum_terms,
    prune,
)
from .limits import (
    BOUNDARY_TOL,
    QUASIFREE_CAP,
    QUASIFREE_WORD_CAP,
    _check_m,
    _coo_apply,
    _index_dtype,
    _read_only,
    _require_hermitian,
)


class QuasifreeSpec(NamedTuple):
    """Eigendata defining a quasifree density.

    `u` holds the eigenvectors of the one-body matrix as columns and
    `lambdas` the eigenvalues in [0, 1].
    """

    m: int
    u: np.ndarray
    lambdas: np.ndarray


@functools.lru_cache(maxsize=QUASIFREE_CAP + 1)
def _degree_order(m: int) -> tuple:
    """The 2**m subset masks sorted by size, and per size k its (slice, index rows).

    `order[slice]` lists the subsets of size k as bitmasks and `rows` (n_k, k)
    as ascending 0-based index tuples, in the same order.
    """
    groups = []
    start = 0
    for k in range(m + 1):
        subsets = list(combinations(range(m), k))
        rows = np.array(subsets, dtype=np.intp).reshape(len(subsets), k)
        rows.setflags(write=False)
        groups.append((slice(start, start + len(subsets)), rows))
        start += len(subsets)
    order = np.concatenate([(1 << rows).sum(axis=1) for _, rows in groups])
    order.setflags(write=False)
    return order, tuple(groups)


def _compound_blocks(u: np.ndarray) -> list:
    """The compound matrices of u, one per subset size k, over `_degree_order`'s subsets.

    Block k holds det(u[J, K]) for the k-subsets J (rows) and K (columns),
    each size's minors from one batched determinant; block 0 is [[1]].
    """
    return [np.linalg.det(u[rows[:, None, :, None], rows[None, :, None, :]])
            for _, rows in _degree_order(len(u))[1]]


def build_quasifree(gamma: np.ndarray) -> tuple[QuasifreeSpec, GrassmannElement]:
    """Construct the unique quasifree density with the given one-body matrix.

    gamma must be Hermitian with spectrum in [-BOUNDARY_TOL, 1 + BOUNDARY_TOL]
    and m <= QUASIFREE_CAP.
    Returns the spec and the normalized density element expressed in the
    original generators; its extracted one-body matrix reproduces gamma.

    With gamma = u diag(lambda) u^dagger and the eigenvalues within
    BOUNDARY_TOL of 0 or 1 snapped there, the normalized factor of eigenmode
    i is (2 lambda_i - 1) nbar_i n_i + (1 - lambda_i): its trace is 1 for
    every lambda_i in [0, 1], and at lambda_i = 1 it is the occupied
    projector nbar_i n_i, so no boundary needs a branch of its own.  Their
    product weighs the diagonal monomial on mode subset Q with
    w_Q = prod_{i in Q} (2 lambda_i - 1) prod_{i not in Q} (1 - lambda_i),
    signed (-1)^{k(k-1)/2} for |Q| = k, and rotating it to the original
    generators (the change of generators by v = u^dagger) turns the degree-k
    block over barred subsets J and plain subsets K into
    (-1)^{k(k-1)/2} M_k^dagger diag(w) M_k, M_k[Q, J] = det(v[Q, J])
    (`_compound_blocks`).  The blocks are written straight into kappa's
    coefficient vector: no star product, trace or rotation of an element.
    `prune` drops the coefficients at or below PRUNE_REL_TOL of the largest:
    a degenerate spectrum makes M_k^dagger diag(w) M_k a multiple of the
    identity, whose off-diagonal sums cancel only to roundoff.
    """
    gamma = _require_hermitian(gamma, "gamma")
    m = gamma.shape[0]
    _check_m(m, QUASIFREE_CAP)
    lam, u = np.linalg.eigh(gamma)
    if not -BOUNDARY_TOL <= lam.min() <= lam.max() <= 1.0 + BOUNDARY_TOL:
        raise ValueError(f"one-body spectrum [{lam.min():.3e}, {lam.max():.3e}] leaves [0, 1]")
    lam = np.clip(lam, 0.0, 1.0)
    snapped = np.where(lam <= BOUNDARY_TOL, 0.0, np.where(lam >= 1.0 - BOUNDARY_TOL, 1.0, lam))
    order, groups = _degree_order(m)
    member = (order[:, None] >> np.arange(m)) & 1  # mode i lies in subset Q
    weights = np.where(member, 2.0 * snapped - 1.0, 1.0 - snapped).prod(axis=1)
    coeffs = np.zeros((1 << m, 1 << m), dtype=complex)
    for k, ((subsets, _), minors) in enumerate(zip(groups, _compound_blocks(u.conj().T))):
        block = (minors.conj().T * weights[subsets]) @ minors
        masks = order[subsets]
        coeffs[masks[:, None], masks] = _half_pair_sign(k) * block
    return QuasifreeSpec(m, u, lam), prune(GrassmannElement.from_vector(m, coeffs.ravel()))


def generator_words(m: int, max_points: int):
    """All words of distinct generators up to the given length."""
    gens = [(i, True) for i in range(1, m + 1)] + [(i, False) for i in range(1, m + 1)]
    for k in range(1, max_points + 1):
        yield from permutations(gens, k)


def _word_product_entries(m: int, max_points: int) -> tuple[tuple, tuple]:
    """COO arrays (row, t, coeff) of each word product g1 * ... * gk, rows in generator_words order.

    Built level by level: the products of the words of length k are those of
    length k - 1, each term against the last generator of every word that
    extends it, in one `_star_pairs` call; only one level is kept at a time.
    In generator_words order the words extending a prefix follow one another,
    2m - k + 1 of them with the unused generators ascending, so word w of
    length k - 1 has the children w * (2m - k + 1) + j.  Each level's entries
    are sorted by (row, t), exact zeros dropped; the factors are single
    generators, so every m up to QUASIFREE_CAP is cheap.  Also returns, per
    even k, the first row of its n words, k, and the read-only array
    (k(k-1)/2, n) of flat two-point indices a * 2m + b of each position pair
    p < q, pairs in `combinations` order, with a and b the generator numbers
    at positions p and q (pbar_i is i - 1, p_i is m + i - 1), in the
    smallest dtype that holds 4m^2 - 1 (uint8 up to m = 8).
    """
    gens = _generators(m)
    words = np.arange(2 * m)[:, None]  # generator numbers of each word, one word per row
    rows, ts, coeffs = np.arange(2 * m), gens, np.ones(2 * m, dtype=complex)
    out = [(rows, ts, coeffs)]
    pair_tables = []
    first = 2 * m
    for k in range(2, max_points + 1):
        width = 2 * m - k + 1
        unused = np.ones((len(words), 2 * m), dtype=bool)
        unused[np.arange(len(words))[:, None], words] = False
        parent, last = np.nonzero(unused)
        words = np.concatenate((words[parent], last[:, None]), axis=1)
        term, j = np.divmod(np.arange(len(ts) * width), width)
        child = rows[term] * width + j
        pair, index, sign = _star_pairs(ts[term], gens[last[child]], m)
        keys, coeffs = _sum_terms((child[pair] << (2 * m)) | index, coeffs[term[pair]] * sign)
        rows, ts = keys >> (2 * m), keys & ((1 << (2 * m)) - 1)
        out.append((rows + first, ts, coeffs))
        if k % 2 == 0:
            p, q = np.array(list(combinations(range(k), 2))).T
            pairs = (words[:, p] * (2 * m) + words[:, q]).T.astype(_index_dtype(4 * m * m - 1))
            pair_tables.append((first, k, *_read_only(pairs)))
        first += len(words)
    return tuple(np.concatenate(part) for part in zip(*out)), tuple(pair_tables)


@functools.lru_cache(maxsize=8)
def _star_word_map(m: int, max_points: int) -> tuple[tuple, tuple]:
    """kappa -> star_trace(kappa, g1 * ... * gk) over every word, as ((moments, combine), pair_tables).

    `moments` is (rows, monomials) over the monomials the word products
    reach, the shape of `kernel._moment_map`; `combine` is (COO triple,
    n_words), the shape of `conditions._probe_set_map`.  The Wick side reads
    the pair tables; the cache holds at most 8 entries.
    """
    n_words = words_checked(m, max_points)  # checks m, max_points and the word cap first
    (rows, ts, coeffs), pair_tables = _word_product_entries(m, max_points)
    monomials, cols = np.unique(ts, return_inverse=True)
    moments = _read_only(*_moment_rows(monomials, m)), _read_only(monomials)[0]
    return (moments, (_read_only(rows, cols, coeffs), n_words)), pair_tables


def _clamp_points(m: int, max_points: int) -> int:
    """max_points capped at 2m: no word of distinct generators is longer, so no word is lost."""
    return min(max_points, 2 * m)


def words_checked(m: int, max_points: int) -> int:
    """Number of generator words `verify_quasifree` compares, sum_k (2m)!/(2m-k)! up to max_points.

    Raises ValueError when m > QUASIFREE_CAP, when max_points < 1, or when
    the count passes QUASIFREE_WORD_CAP.
    """
    _check_m(m, QUASIFREE_CAP)
    if max_points < 1:
        raise ValueError(f"max_points must be at least 1, got {max_points}")
    n_words = sum(math.perm(2 * m, k) for k in range(1, _clamp_points(m, max_points) + 1))
    if n_words > QUASIFREE_WORD_CAP:
        raise ValueError(f"max_points {max_points} at m = {m} gives {n_words:,} generator words, "
                         f"past the cap of {QUASIFREE_WORD_CAP:,}")
    return n_words


@functools.cache
def _matchings(k: int) -> tuple:
    """Signed perfect matchings of positions 0..k-1, as (sign, ((p, q), ...)) with p < q.

    Position 0 pairs with each later position in turn, with the alternating
    sign of the pairing recursion: 1, 3 and 15 matchings for k = 2, 4 and 6.
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


def _wick_word_values(spec: QuasifreeSpec, max_points: int) -> np.ndarray:
    """Pairing sums of every generator word, in the original generators, all words at once.

    With gamma = u diag(lambda) u^dagger the two-point values are
    <pbar_i p_j> = gamma[j, i] and <p_j pbar_i> = delta_ij - gamma[j, i];
    same-type pairs give 0.  Odd words vanish; for the words of each even
    length k one flat `take` from the 2m x 2m two-point matrix gathers the
    values of every position pair at the indices cached beside the
    `_star_word_map` map, and they are summed over the signed perfect
    matchings of k positions.
    """
    m = spec.m
    (_, (_, n_words)), pair_tables = _star_word_map(m, max_points)
    gamma = (spec.u * spec.lambdas) @ spec.u.conj().T
    two_point = np.zeros((2 * m, 2 * m), dtype=complex)
    two_point[:m, m:] = gamma.T
    two_point[m:, :m] = np.eye(m) - gamma
    two_point = two_point.ravel()
    out = np.zeros(n_words, dtype=complex)
    for first, k, pairs in pair_tables:
        pair_values = dict(zip(combinations(range(k), 2), two_point.take(pairs)))
        values = out[first:first + pairs.shape[1]]
        for sign, matching in _matchings(k):
            term = math.prod(pair_values[pq] for pq in matching)
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


def verify_quasifree(kappa: GrassmannElement, spec: QuasifreeSpec, max_points: int) -> float:
    """Max deviation between star-product and Wick expectations over all words.

    Compares, on every word of distinct generators up to max_points, the
    integral expectation of kappa itself against the Wick pairing sum of the
    spec's one-body matrix gamma = u diag(lambda) u^dagger, both in the
    original generators; quasifree densities stay at roundoff, generic ones
    do not.  The two sides stay independent: Grassmann kernels on kappa
    against pairings of gamma.  By associativity the star side of word
    g1...gk is star_trace(kappa, g1 * ... * gk), a fixed linear functional,
    so all words are two cached COO maps applied to kappa.to_vector(), its
    moments and then their combine per word (`_star_word_map`); the Wick
    side evaluates all words of one length at once (`_wick_word_values`).
    Neither side rotates kappa.  There is one value per word,
    sum_k (2m)!/(2m-k)! of them, and the cache entry, maps and pair
    tables, grows with that count, at about 50-100 bytes a word: with
    4 points 0.1 MB for the 2080 words at m = 4, 0.8 MB for the 13,344 at
    m = 6 and 4.5 MB for the 47,296 at m = 8.  Its build peaks at 340-600
    bytes a word above a fresh process's RSS (x86-64, Python 3.11): 35 MB
    for the 108,384 words at m = 6 with 5 points and 440 MB for the 773,664
    with 6 points, so a count just under QUASIFREE_WORD_CAP can take about
    0.6 GB.  max_points has no default, since that cost is the caller's to
    choose, and a count past the cap, such as m = 8's 6,337,216 words with
    6 points, is refused before anything is built.  Raises
    ValueError when kappa and spec differ in m, when m > QUASIFREE_CAP,
    when max_points < 1, or when the word count passes QUASIFREE_WORD_CAP;
    a max_points above 2m checks the same words as 2m.
    """
    if kappa.m != spec.m:
        raise ValueError(f"density has m = {kappa.m} but spec has m = {spec.m}")
    max_points = _clamp_points(spec.m, max_points)
    ((rows, monomials), (combine, n_words)), _ = _star_word_map(spec.m, max_points)
    lhs = _coo_apply(*combine, _coo_apply(*rows, kappa.to_vector(), len(monomials)), n_words)
    rhs = _wick_word_values(spec, max_points)
    return float(np.max(np.abs(lhs - rhs)))


def _element(kappa: GrassmannElement) -> str:
    """`serialize.element_to_dict(kappa)` as indent-2 JSON at depth 1, straight from kappa's arrays.

    Each mask's index list is rendered once.
    """
    i1, i2, i3, i4 = ("\n" + "  " * k for k in range(2, 6))
    index, coeffs = kappa.arrays()
    if not index.size:
        return f'{{{i1}"m": {kappa.m},{i1}"terms": []\n  }}'
    bar, unbar = _split_index(index, kappa.m)
    lists = {k: f"[{i4}{(',' + i4).join(map(str, _indices(k)))}{i3}]" if k else "[]"
             for k in set(bar).union(unbar)}
    re, im = coeffs.real.tolist(), coeffs.imag.tolist()
    if not np.isfinite(coeffs).all():
        re, im = map(json.dumps, re), map(json.dumps, im)
    # str(x) of a float is float.__repr__(x), as json writes it
    terms = f",{i2}".join(
        f'{{{i3}"bar": {lists[b]},{i3}"unbar": {lists[u]},{i3}"re": {r},{i3}"im": {j}{i2}}}'
        for b, u, r, j in zip(bar, unbar, re, im))
    return f'{{{i1}"m": {kappa.m},{i1}"terms": [{i2}{terms}{i1}]\n  }}'


def _dumps(payload: dict) -> str:
    """`run`'s {"element": kappa, "report": ...} as json's indent-2 text of kappa's element_to_dict.

    kappa goes through `_element` and the report through json.
    """
    report = json.dumps(payload["report"], indent=2).replace("\n", "\n  ")
    return f'{{\n  "element": {_element(payload["element"])},\n  "report": {report}\n}}'


def run(args) -> int:
    """`grdm quasifree`: build kappa from the --in gamma, verify it, and write both to --out.

    A pair's Gamma is checked like `grdm check`'s and otherwise not used.
    """
    from . import serialize
    from .cli import write_out

    gamma, Gamma, m = serialize._load_check_input(args.infile)
    spec, kappa = build_quasifree(gamma)
    if Gamma is not None:
        _require_hermitian(Gamma, "Gamma")
    pdm_dev = float(np.max(np.abs(_pdm1(_moments(kappa.to_vector(), m), m) - gamma)))
    wick_dev = verify_quasifree(kappa, spec, max_points=args.max_points)
    points = words_checked(m, args.max_points)
    report = {"pdm1_max_dev": pdm_dev, "wick_max_dev": wick_dev, "points_checked": points}
    if args.outfile is not None:
        write_out(args.outfile, _dumps({"element": kappa, "report": report}))
    if args.verbose or args.outfile is None:
        print(f"quasifree m={m}: pdm1_max_dev {pdm_dev:.3e}, "
              f"wick_max_dev {wick_dev:.3e} over {points} words")
    return 0
