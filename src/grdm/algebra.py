"""Exact arithmetic on a finite Grassmann algebra with conjugate generator pairs.

The public element operations: the constructors, the plain (wedge) product,
the star product, which mirrors operator composition on the
2^m-dimensional Fock space, the involution, the two integration functionals
(top-coefficient extraction and the weighted trace form) and `star_trace`.
They import the element type and its array sign kernels from `kernel`
(`_mono_products`, `_star_pairs`, `_trace_rows`, `_pair_sums`), and the caps
and `_check_m` from `limits`.

Beside them this module keeps the sign rules in scalar form, on one monomial
pair at a time (`_merge_sign`, `_mono_mul`), and the memo of the scalar
monomial star product behind `star_monomials` (`_star_monomials_terms`),
which is also the reference the kernel is tested against.  That memo is the
only state kept here, and every operation is a pure function.
"""

from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

from .kernel import (
    GrassmannElement,
    Monomial,
    _half_pair_sign,
    _involution_terms,
    _mono_products,
    _pair_sums,
    _pair_traces,
    _popcount,
    _same_m,
    _split,
    _star_pairs,
    _trace_rows,
)
from .limits import ELEMENT_CAP, STAR_CAP, _check_m


def _merge_sign(a: int, b: int) -> int:
    """Sign for sorting the concatenation of two disjoint ascending blocks."""
    par = 0
    y = b
    while y:
        low = y & -y
        par ^= (a >> low.bit_length()).bit_count() & 1
        y ^= low
    return -1 if par else 1


def _mono_mul(bar1: int, ub1: int, bar2: int, ub2: int):
    """Plain (wedge) product of two canonical monomials; None when it vanishes."""
    if bar1 & bar2 or ub1 & ub2:
        return None
    sign = -1 if (ub1.bit_count() & bar2.bit_count() & 1) else 1
    sign *= _merge_sign(bar1, bar2) * _merge_sign(ub1, ub2)
    return sign, bar1 | bar2, ub1 | ub2


def _acc(d: dict, key: Monomial, val: complex) -> None:
    c = d.get(key)
    if c is None:
        d[key] = val
    else:
        c = c + val
        if c == 0:
            del d[key]
        else:
            d[key] = c


def make_element(m: int, terms: Iterable[tuple[Iterable[int], Iterable[int], complex]]) -> GrassmannElement:
    """Build an element from (bar indices, unbar indices, coefficient) triples.

    Indices are 1-based and must lie in [1, m]; duplicate monomials have their
    coefficients summed.
    """
    _check_m(m, ELEMENT_CAP)
    out: dict = {}
    for bar, unbar, coeff in terms:
        _acc(out, Monomial.from_indices(bar, unbar, m), complex(coeff))
    return GrassmannElement(m, out)


def unit(m: int) -> GrassmannElement:
    return GrassmannElement(m, {Monomial(0, 0): 1 + 0j})


def psi(i: int, m: int) -> GrassmannElement:
    """Single plain generator p_i as an element."""
    return make_element(m, [((), (i,), 1.0)])


def psibar(i: int, m: int) -> GrassmannElement:
    """Single conjugated generator pbar_i as an element."""
    return make_element(m, [((i,), (), 1.0)])


def multiply(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """Plain (wedge) product, bilinear over the monomial products."""
    _same_m(a, b)
    return GrassmannElement._from_arrays(a.m, *_pair_sums(_mono_products, _rows(a), _rows(b), a.m))


def _rows(a: GrassmannElement) -> tuple:
    """An element's terms as `_pair_sums` operands, all in row 0."""
    index, coeffs = a.arrays()
    return np.zeros(len(index), dtype=np.intp), index, coeffs


@functools.lru_cache(maxsize=1 << 18)
def _star_monomials_terms(bar_a: int, ub_a: int, bar_b: int, ub_b: int, m: int):
    """Expansion of one monomial star product as a tuple of (monomial, coeff)."""
    I, J, K, L = bar_a, ub_a, bar_b, ub_b
    S = J & K
    ns = S.bit_count()
    # reordering signs of the integrated block: sigma_JS then sigma_S
    exp_js = ns * (J & ~S).bit_count() + ns * (ns - 1) // 2
    sign = -1 if exp_js & 1 else 1
    sign *= _merge_sign(S, J & ~S) * _merge_sign(S, K & ~S)
    core = _mono_mul(I, J & ~S, K & ~S, L)
    if core is None:
        return ()
    csign, cbar, cub = core
    sign *= csign
    # remaining factor: prod over J|K of (1 - pbar p), expanded over subsets
    avail = (J | K) & ~(cbar | cub)
    out = []
    sub = avail
    while True:
        nb = sub.bit_count()
        b_sign = -1 if (nb + nb * (nb - 1) // 2) & 1 else 1
        msign, mbar, mub = _mono_mul(cbar, cub, sub, sub)
        out.append((Monomial(mbar, mub), complex(sign * b_sign * msign)))
        if sub == 0:
            break
        sub = (sub - 1) & avail
    return tuple(out)


def star_monomials(a: Monomial, b: Monomial, m: int) -> GrassmannElement:
    """Star product of two basis monomials, fully expanded.

    Evaluates the Gaussian-convolution product directly on the monomial pair:
    the reordered normal core times the expanded commuting weight over the
    contracted index block.  Index collisions give the zero element.
    """
    _check_m(m, ELEMENT_CAP)
    terms = _star_monomials_terms(a.bar, a.unbar, b.bar, b.unbar, m)
    return GrassmannElement(m, dict(terms))


def star(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """Bilinear star product of two elements.

    Associative and unital; full-element products are capped at m <= STAR_CAP
    because the pairing cost grows as 16**m.  The term pairs run through the
    `_star_pairs` kernel in bounded chunks (`_pair_sums`).
    """
    _same_m(a, b)
    _check_m(a.m, STAR_CAP)
    return GrassmannElement._from_arrays(a.m, *_pair_sums(_star_pairs, _rows(a), _rows(b), a.m))


def involution(a: GrassmannElement) -> GrassmannElement:
    """Antilinear involution: reverses factors and conjugates generators.

    On a monomial it swaps the bar/unbar index sets and multiplies by
    (-1)**(s_I + s_J) with s_X = |X|(|X|-1)/2; satisfies a** = a and
    (a * b)^star-involution = b* star a*.
    """
    index, coeffs = _involution_terms(*a.arrays(), a.m)
    order = np.argsort(index, kind="stable")
    return GrassmannElement._from_arrays(a.m, index[order], coeffs[order])


def raw_integral(a: GrassmannElement) -> complex:
    """Top-coefficient extraction: the iterated pair-derivative functional.

    Left derivatives that anticommute past preceding generators fix the sign
    of the full monomial at (-1)**(m(m+1)/2); everything below the top
    monomial integrates to zero.
    """
    m = a.m
    index, coeffs = a.arrays()
    if not index.size or index[-1] != (1 << (2 * m)) - 1:  # the top monomial sorts last
        return 0j
    sign = -1 if (m * (m + 1) // 2) & 1 else 1
    return sign * complex(coeffs[-1])


def trace_weight(m: int) -> GrassmannElement:
    """The commuting weight prod_alpha (1 + 2 pbar_alpha p_alpha), expanded."""
    _check_m(m, ELEMENT_CAP)
    out = {}
    full = (1 << m) - 1
    sub = full
    while True:
        k = sub.bit_count()
        out[Monomial(sub, sub)] = complex(_half_pair_sign(k) * (1 << k))
        if sub == 0:
            break
        sub = (sub - 1) & full
    return GrassmannElement(m, out)


def trace_integral(a: GrassmannElement) -> complex:
    """Weighted integral equal to the Fock-space trace of the element's image.

    Equals (-1)**m * raw_integral(a times trace_weight(m)); on monomials this
    collapses to the diagonal rule PbarI PsiI -> (-1)**s_I * 2**(m-|I|) and 0
    off the diagonal, which is the form evaluated here.  The (-1)**m factor is
    kept inside so the value is the trace for odd m as well.
    """
    m = a.m
    index, coeffs = a.arrays()
    bar, ub = _split(index, m)
    diagonal = np.flatnonzero(bar == ub)
    k = _popcount(bar[diagonal], m)
    return complex(coeffs[diagonal] @ ((1 - 2 * ((k >> 1) & 1)) << (m - k)))


def pair_integral_closed_form(a: Monomial, b: Monomial, m: int) -> complex:
    """Closed form of trace_integral(star_monomials(a, b)).

    Vanishes unless the index sets interlock; otherwise the value is a signed
    power of two (`_pair_traces`).  Serves as the sign-convention oracle.
    """
    _check_m(m, ELEMENT_CAP)
    return complex(_pair_traces(*(np.array([x]) for x in (*a, *b)), m)[0])


def star_trace(a: GrassmannElement, b: GrassmannElement) -> complex:
    """trace_integral(star(a, b)) evaluated without expanding the star.

    The trace is cyclic, so the monomials t of the element with fewer terms
    are enumerated with the monomials that interlock with them
    (`_trace_rows`), which are looked up in the other element's sorted index.
    """
    _same_m(a, b)
    m = a.m
    if len(a.arrays()[0]) < len(b.arrays()[0]):
        a, b = b, a
    (ia, ca), (ib, cb) = a.arrays(), b.arrays()
    row, index, value = _trace_rows(*_split(ib, m), m)
    pos = np.minimum(np.searchsorted(ia, index), max(len(ia) - 1, 0))
    hit = np.flatnonzero(ia[pos] == index)  # ia is empty only when index is
    return complex(np.sum(ca[pos[hit]] * cb[row[hit]] * value[hit]))
