"""Slow reference implementations used only to validate the fast paths.

The reference star product evaluates the defining Gaussian-convolution
integral literally on a doubled algebra: the original generators occupy the
low index block, the integration generators the high block, and the
convolution weight is multiplied out before a left-derivative Berezin
integral eliminates the high block.

The reference generator change expands every term over each pair of minor
determinants, one accumulation per (barred minor, plain minor) pair.

The map-build references expand the condition forms and the quasifree word
products with the public star product, one element per product, in the
order the builders in `conditions` and `quasifree` use.

The dense Fock references multiply the 2^m x 2^m ladder matrices: to_operator
as a sum of ordered ladder products, one matrix product per monomial, and
the pdms as traces of rho times ladder words.  The from_operator map is
built entry by entry, with the scalar sign kernels per entry.
"""

import functools
from itertools import combinations

import numpy as np

from grdm import fock, quasifree
from grdm.algebra import (GrassmannElement, Monomial, _acc, _half_pair_sign, _indices, _merge_sign,
                          involution, multiply, psi, psibar, star, unit)


def _lift_left(a, m):
    # mu(pbar, phi): unbarred indices move to the integration block
    return GrassmannElement(2 * m, {Monomial(k.bar, k.unbar << m): c for k, c in a.terms.items()})


def _lift_right(b, m):
    # eta(phibar, p): barred indices move to the integration block
    return GrassmannElement(2 * m, {Monomial(k.bar << m, k.unbar): c for k, c in b.terms.items()})


def _pair_exponential(m, bar_shift, ub_shift, sign):
    """prod_alpha (1 + sign * xbar_alpha y_alpha) on the doubled algebra."""
    out = GrassmannElement(2 * m, {Monomial(0, 0): 1.0 + 0j})
    for alpha in range(m):
        factor = GrassmannElement(2 * m, {
            Monomial(0, 0): 1.0 + 0j,
            Monomial(1 << (alpha + bar_shift), 1 << (alpha + ub_shift)): complex(sign),
        })
        out = multiply(out, factor)
    return out


def partial_berezin(el, modes):
    """Left-derivative pair integral over the given 1-based mode indices."""
    for a in modes:
        bit = 1 << (a - 1)
        new = {}
        for (bar, ub), c in el.terms.items():
            if not (bar & bit and ub & bit):
                continue
            sign = 1
            if (bar.bit_count() + (ub & (bit - 1)).bit_count()) & 1:
                sign = -sign
            if ((bar & (bit - 1)).bit_count()) & 1:
                sign = -sign
            _acc(new, Monomial(bar ^ bit, ub ^ bit), sign * c)
        el = GrassmannElement(el.m, new)
    return el


def star_reference(a, b):
    """The star product evaluated through its integral definition."""
    assert a.m == b.m
    m = a.m
    integrand = multiply(_lift_left(a, m), _lift_right(b, m))
    for weight in (
        _pair_exponential(m, 0, 0, -1),    # e^{-(Pbar, P)}
        _pair_exponential(m, 0, m, +1),    # e^{+(Pbar, Phi)}
        _pair_exponential(m, m, m, -1),    # e^{-(Phibar, Phi)}
        _pair_exponential(m, m, 0, +1),    # e^{+(Phibar, P)}
    ):
        integrand = multiply(integrand, weight)
    reduced = partial_berezin(integrand, range(m + 1, 2 * m + 1))
    low = (1 << m) - 1
    out = {}
    for (bar, ub), c in reduced.terms.items():
        assert bar & ~low == 0 and ub & ~low == 0
        out[Monomial(bar, ub)] = c
    return GrassmannElement(m, out)


def change_generators_reference(a, u):
    """change_generators term by term: every term times every pair of nonzero minors."""
    m = a.m
    u = np.asarray(u, dtype=complex)
    ubar = u.conj()
    col_subsets = {k: list(combinations(range(m), k)) for k in range(m + 1)}

    @functools.cache
    def block(barred, mask):
        # antisymmetric expansion of an ordered generator block: minors over
        # all ascending column subsets of matching size, once per (side, rows)
        mat = ubar if barred else u
        rows = [i - 1 for i in _indices(mask)]
        out = []
        for cols in col_subsets[len(rows)]:
            d = complex(np.linalg.det(mat[np.ix_(rows, cols)])) if rows else 1.0 + 0j
            if d != 0:
                out.append((sum(1 << c for c in cols), d))
        return out

    out: dict = {}
    for (bar, ub), c in a.terms.items():
        ub_parts = block(False, ub)
        for bmask, bdet in block(True, bar):
            cb = c * bdet
            for umask, udet in ub_parts:
                _acc(out, Monomial(bmask, umask), cb * udet)
    return GrassmannElement(m, out)


@functools.cache
def _ordered_products(m):
    """C*_I and C_J for every index mask, factors in ascending index order."""
    crt = [fock.creation(i, m) for i in range(1, m + 1)]
    ann = [fock.annihilation(i, m) for i in range(1, m + 1)]
    dim = 1 << m
    eye = np.eye(dim, dtype=complex)
    cs_prod = {0: eye}
    an_prod = {0: eye}
    for mask in range(1, dim):
        low = mask & -mask
        i = low.bit_length() - 1
        cs_prod[mask] = crt[i] @ cs_prod[mask ^ low]
        an_prod[mask] = ann[i] @ an_prod[mask ^ low]
    return cs_prod, an_prod


def to_operator_reference(a):
    """Fock operator of an element: coeff * C*_I C_J summed in term order."""
    m = a.m
    cs_prod, an_prod = _ordered_products(m)
    dim = 1 << m
    out = np.zeros((dim, dim), dtype=complex)
    for (bar, ub), c in a.terms.items():
        out += c * (cs_prod[bar] @ an_prod[ub])
    return out


def pdms_from_rho_reference(rho):
    """gamma[k, l] = tr(rho c*_l c_k), Gamma[(i, j), (k, l)] = tr(rho c*_l c*_k c_i c_j)."""
    rho = np.asarray(rho, dtype=complex)
    m = rho.shape[0].bit_length() - 1
    crt = [fock.creation(i, m) for i in range(1, m + 1)]
    ann = [fock.annihilation(i, m) for i in range(1, m + 1)]
    gamma = np.empty((m, m), dtype=complex)
    for k in range(m):
        for l in range(m):
            gamma[k, l] = np.trace(rho @ crt[l] @ ann[k])
    dim = 1 << m
    # stack annihilator pairs A[(i,j)] and rho-weighted creator pairs B[(k,l)]
    A = np.empty((m * m, dim, dim), dtype=complex)
    B = np.empty((m * m, dim, dim), dtype=complex)
    for i in range(m):
        for j in range(m):
            A[i * m + j] = ann[i] @ ann[j]
    for k in range(m):
        for l in range(m):
            B[k * m + l] = rho @ crt[l] @ crt[k]
    Gamma = np.einsum("bxy,ayx->ab", B, A)
    return gamma, Gamma


def element_map_reference(m):
    """fock._element_map as a loop: (dst, src, sign) per (x, y) and Z disjoint from x | y.

    Entries run by src = x * 2^m + y, then by Z descending; the sign is
    (-1)^|Z| h(|Z|) h(|y|) merge(x, Z) merge(Z, y), h(n) = (-1)^(n(n-1)/2).
    """
    dim = 1 << m
    full = dim - 1
    dst, src, sign = [], [], []
    for x in range(dim):
        for y in range(dim):
            hy = _half_pair_sign(y.bit_count())
            free = full & ~(x | y)
            z = free
            while True:
                nz = z.bit_count()
                s = (-1) ** nz * _half_pair_sign(nz) * hy * _merge_sign(x, z) * _merge_sign(z, y)
                dst.append(((x | z) << m) | y | z)
                src.append((x << m) | y)
                sign.append(s)
                if z == 0:
                    break
                z = (z - 1) & free
    return np.array(dst, dtype=np.intp), np.array(src, dtype=np.intp), np.array(sign, dtype=float)


def form_entries_reference(probes, mode):
    """conditions._form_entries on elements: (a * n + b, t, coeff) of b_a* * b_b (+ b_b * b_a*)."""
    n = len(probes)
    bstars = [involution(b) for b in probes]
    for a in range(n):
        for b in range(n):
            x = star(bstars[a], probes[b])
            if mode == "anticommutator":
                x = x + star(probes[b], bstars[a])
            for t, c in x.terms.items():
                yield a * n + b, t, c


def word_product_entries_reference(m, max_points):
    """quasifree._word_product_entries on elements: (row, t, coeff) of each word product."""
    gens = {(i, barred): psibar(i, m) if barred else psi(i, m)
            for i in range(1, m + 1) for barred in (True, False)}
    prefixes = {(): unit(m)}
    for row, word in enumerate(quasifree.generator_words(m, max_points)):
        product = star(prefixes[word[:-1]], gens[word[-1]])
        if len(word) < max_points:
            prefixes[word] = product
        for t, c in product.terms.items():
            yield row, t, c


def canonical_combine(linear_map, monomials, m):
    """A map's combine triple with column c named by monomials[c]'s to_vector index, sorted.

    The builders and the references list the terms of one product in
    different orders, which changes the entry order and, for maps with their
    own moments, the column numbering, but not the map.  Entries are sorted
    by (row, index); the sort is only canonical when no (row, index) pair
    repeats, which is checked.
    """
    rows, cols, vals = linear_map.combine
    names = np.array([(t[0] << m) | t[1] for t in monomials], dtype=np.intp)[cols]
    order = np.lexsort((names, rows))
    rows, names, vals = rows[order], names[order], vals[order]
    assert not np.any((rows[1:] == rows[:-1]) & (names[1:] == names[:-1]))
    return rows, names, vals
