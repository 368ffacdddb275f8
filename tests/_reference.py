"""Slow reference implementations used only to validate the fast paths.

The reference star product evaluates the defining Gaussian-convolution
integral literally on a doubled algebra: the original generators occupy the
low index block, the integration generators the high block, and the
convolution weight is multiplied out before a left-derivative Berezin
integral eliminates the high block.

The reference generator change expands every term over each pair of minor
determinants, one accumulation per (barred minor, plain minor) pair.

The reference quasifree build is the composition that the closed form
replaced: the eigenbasis mode product written down by
`mode_product_expansion`, normalized by its trace and rotated to the
original generators by `change_generators`.

The scalar references walk monomial pairs in Python, one at a time: the
star product of two term maps over the memoised scalar monomial product
`algebra._star_monomials_terms`, and the pair trace with its interlocking
enumeration, which build the moment rows.  The map-build references expand
the condition forms and the quasifree word products on them, one term map
per product, and hand the builders' COO arrays back.  The per-word star
fold folds a word into the density with the public star product.

The dense Fock references multiply the 2^m x 2^m ladder matrices: to_operator
as a sum of ordered ladder products, one matrix product per monomial, and
the pdms as traces of rho times ladder words.  The from_operator map is
built entry by entry, with the scalar sign kernels per entry.

The dense closed-form references build the Q and G matrices from
(gamma, Gamma) with kron products and einsum, against which the index maps
of the condition table are checked.
"""

import functools
import math
from itertools import combinations

import numpy as np

from grdm import fock, quasifree
from grdm.algebra import (BOUNDARY_TOL, GrassmannElement, Monomial, _acc, _half_pair_sign,
                          _indices, _merge_sign, _star_monomials_terms, change_generators,
                          multiply, psi, psibar, star, star_trace, trace_integral)
from grdm.conditions import _validate_pair


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


def build_quasifree_reference(gamma):
    """(u, lambdas, qs) and kappa of gamma, through the mode product, its trace and one rotation.

    Eigenvalues within BOUNDARY_TOL of 0 take the factor -nbar n + 1, those
    within it of 1 the occupied factor nbar n, and the others
    (lambda / (1 - lambda) - 1) nbar n + 1, before the product is normalized.
    """
    lam, u = np.linalg.eigh(gamma)
    lam = np.clip(lam, 0.0, 1.0)
    qs = np.empty(len(lam))
    r = np.zeros(len(lam))
    for i, li in enumerate(lam):
        if li <= BOUNDARY_TOL:
            qs[i] = np.inf
            r[i] = -1.0
        elif li >= 1.0 - BOUNDARY_TOL:
            qs[i] = -np.inf
        else:
            qs[i] = math.log((1.0 - li) / li)
            r[i] = li / (1.0 - li) - 1.0
    element = quasifree.mode_product_expansion(r, occupied=np.isneginf(qs))
    return (u, lam, qs), change_generators((1.0 / trace_integral(element)) * element, u.conj().T)


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


def pair_trace(I, J, K, L, m):
    """trace_integral(star_monomials((I, J), (K, L))) as an exact integer, pair by pair.

    Zero unless the index sets interlock (I - T = J - S and L - T = K - S for
    S = J & K, T = I & L); otherwise a signed power of two.
    """
    S = J & K
    T = I & L
    if (I & ~T) != (J & ~S) or (L & ~T) != (K & ~S):
        return 0
    nj = J.bit_count()
    nl = L.bit_count()
    sign = -1 if (nj * (nj - 1) // 2 + nl * (nl - 1) // 2) & 1 else 1
    sign *= _merge_sign(S, J & ~S) * _merge_sign(S, K & ~S)
    sign *= _merge_sign(T, I & ~T) * _merge_sign(T, L & ~T)
    return sign * (1 << (m - (I | K).bit_count()))


def interlocking(K, L, m):
    """The 2**(m - |K ^ L|) monomials (I, J) whose pair trace with (K, L) is nonzero.

    They are I = (L & ~K) | s and J = (K & ~L) | s for every s inside the
    bits where K and L agree, s descending.
    """
    free = ((1 << m) - 1) & ~(K ^ L)
    sub = free
    while True:
        yield (L & ~K) | sub, (K & ~L) | sub
        if sub == 0:
            return
        sub = (sub - 1) & free


def moment_rows_reference(monomials, m):
    """algebra.moment_rows as a loop: row r holds the pair traces of the r-th monomial."""
    rows, cols, vals = [], [], []
    for r, (K, L) in enumerate(monomials):
        for I, J in interlocking(K, L, m):
            rows.append(r)
            cols.append((I << m) | J)
            vals.append(pair_trace(I, J, K, L, m))
    return (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
            np.array(vals, dtype=float))


def star_terms_reference(a_terms, b_terms, m):
    """The star product of two maps Monomial -> coefficient, one scalar monomial product per pair."""
    out: dict = {}
    for (a_bar, a_unbar), ca in a_terms.items():
        for (b_bar, b_unbar), cb in b_terms.items():
            c = ca * cb
            for km, cm in _star_monomials_terms(a_bar, a_unbar, b_bar, b_unbar, m):
                _acc(out, km, c * cm)
    return out


def _involution_terms(terms):
    return {Monomial(ub, bar): _half_pair_sign(bar.bit_count()) * _half_pair_sign(ub.bit_count())
            * complex(c).conjugate() for (bar, ub), c in terms.items()}


def _coo(entries, m):
    """(row, t, coeff) triples with Monomial t as the COO arrays the map builders return."""
    rows, ts, coeffs = [], [], []
    for row, t, c in entries:
        rows.append(row)
        ts.append((t.bar << m) | t.unbar)
        coeffs.append(c)
    return (np.array(rows, dtype=np.intp), np.array(ts, dtype=np.intp),
            np.array(coeffs, dtype=complex))


def form_entries_reference(probes, mode, m):
    """conditions._form_entries on term maps: the expanded b_a* * b_b (+ b_b * b_a*) in row a * n + b."""
    n = len(probes)
    terms = [dict(b.terms) for b in probes]
    bstars = [_involution_terms(t) for t in terms]
    entries = []
    for a in range(n):
        for b in range(n):
            x = star_terms_reference(bstars[a], terms[b], m)
            if mode == "anticommutator":
                for t, c in star_terms_reference(terms[b], bstars[a], m).items():
                    _acc(x, t, c)
            entries.extend((a * n + b, t, c) for t, c in x.items())
    return _coo(entries, m)


def word_product_entries_reference(m, max_points):
    """quasifree._word_product_entries on term maps: each word product as its prefix's times one generator."""
    gens = {(i, barred): {Monomial(1 << (i - 1), 0) if barred else Monomial(0, 1 << (i - 1)): 1 + 0j}
            for i in range(1, m + 1) for barred in (True, False)}
    prefixes = {(): {Monomial(0, 0): 1 + 0j}}
    entries = []
    for row, word in enumerate(quasifree.generator_words(m, max_points)):
        product = star_terms_reference(prefixes[word[:-1]], gens[word[-1]], m)
        if len(word) < max_points:
            prefixes[word] = product
        entries.extend((row, t, c) for t, c in product.items())
    return _coo(entries, m)


def star_word_expectation(kappa, word):
    """Expectation of a star product of single generators against a density, folded word by word."""
    m = kappa.m
    acc = kappa
    for idx, barred in word[:-1]:
        gen = psibar(idx, m) if barred else psi(idx, m)
        acc = star(acc, gen)
    idx, barred = word[-1]
    last = psibar(idx, m) if barred else psi(idx, m)
    return star_trace(acc, last)


def canonical_combine(linear_map):
    """A map's combine triple with column c named by its moment's monomial, sorted by (row, monomial).

    Two builds of one map may list the terms of a product in different
    orders, and maps with their own moments may number them differently,
    but the canonical triples agree.  The sort is only canonical when no
    (row, monomial) pair repeats, which is checked.
    """
    rows, cols, vals = linear_map.combine
    names = linear_map.monomials[cols]
    order = np.lexsort((names, rows))
    rows, names, vals = rows[order], names[order], vals[order]
    assert not np.any((rows[1:] == rows[:-1]) & (names[1:] == names[:-1]))
    return rows, names, vals


def q_condition_matrix(gamma, Gamma):
    """Q's closed form Gamma + (1 - Ex)(1 - gamma (x) 1 - 1 (x) gamma), Ex the pair exchange."""
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    eye = np.eye(m)
    ex = fock.exchange_matrix(m)
    x = np.eye(m * m) - np.kron(gamma, eye) - np.kron(eye, gamma)
    return Gamma + (np.eye(m * m) - ex) @ x


def g_condition_matrix(gamma, Gamma):
    """Covariance form whose positivity is the one-body-operator condition.

    M[(k,l),(m,n)] = delta_km gamma[n,l] - Gamma[(k,n),(m,l)] - gamma[k,l] gamma[n,m].
    """
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    g4 = Gamma.reshape(m, m, m, m)
    t1 = np.einsum("km,nl->klmn", np.eye(m), gamma)
    t2 = g4.transpose(0, 3, 2, 1)
    t3 = np.einsum("kl,nm->klmn", gamma, gamma)
    return (t1 - t2 - t3).reshape(m * m, m * m)
