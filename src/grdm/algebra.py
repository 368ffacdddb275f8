"""Exact arithmetic on a finite Grassmann algebra with conjugate generator pairs.

The algebra over anticommuting generators {pbar_1..pbar_m, p_1..p_m} is spanned
by normal-ordered monomials: all conjugated (barred) generators to the left,
both groups in ascending index order.  On top of the plain wedge product the
module provides the star product, which mirrors operator composition on the
2^m-dimensional Fock space, the involution, and the two integration
functionals (top-coefficient extraction and the weighted trace form).

Sign bookkeeping is done on bitmasks with popcount-prefix counting, so every
coefficient produced from integer inputs is an exact signed power of two.

Elements are immutable after construction and every operation is a pure
function.  The only shared state is a set of caches keyed by value: the memo
of monomial star products and the per-m subset orderings of
change_generators (`_degree_order`).  The cached map builds of `conditions`
and `quasifree` run the star product on plain Monomial -> coefficient maps
(`_star_terms`) and build no element per product.
"""

from __future__ import annotations

import functools
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, NamedTuple

import numpy as np

ELEMENT_CAP = 10  # monomial-pair fast paths stay exact up to here
STAR_CAP = 6      # full-element star products; dense pairing cost grows as 16**m
PRUNE_REL_TOL = 1e-14
DENSITY_TRACE_TOL = 1e-8  # |trace - 1| a density may have; expectation and conditions check it
OPERATOR_PRUNE_REL_TOL = 1e-13  # fock.from_operator: roundoff of its signed subset sums


class Monomial(NamedTuple):
    """Normal-ordered basis monomial, stored as a pair of index bitmasks.

    Bit i-1 of each mask flags generator index i (indices are 1-based in the
    public API).  `bar` collects the conjugated generators, `unbar` the plain
    ones.
    """

    bar: int
    unbar: int

    @classmethod
    def from_indices(cls, bar: Iterable[int], unbar: Iterable[int], m: int) -> "Monomial":
        return cls(_mask(bar, m), _mask(unbar, m))

    def bar_indices(self) -> tuple[int, ...]:
        return _indices(self.bar)

    def unbar_indices(self) -> tuple[int, ...]:
        return _indices(self.unbar)


def _split_index(index: np.ndarray, m: int) -> tuple[list, list]:
    """The bar and unbar masks of to_vector indices bar * 2**m + unbar, as int lists."""
    return (index >> m).tolist(), (index & ((1 << m) - 1)).tolist()


def _mask(indices: Iterable[int], m: int) -> int:
    mask = 0
    for i in indices:
        if not 1 <= i <= m:
            raise ValueError(f"generator index {i} outside [1, {m}]")
        mask |= 1 << (i - 1)
    return mask


def _indices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _merge_sign(a: int, b: int) -> int:
    """Sign for sorting the concatenation of two disjoint ascending blocks."""
    par = 0
    y = b
    while y:
        low = y & -y
        par ^= (a >> low.bit_length()).bit_count() & 1
        y ^= low
    return -1 if par else 1


def _merge_signs(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """`_merge_sign` over arrays of disjoint masks, +1 or -1 each, looping over the m bits.

    Sorting the concatenation of two ascending blocks takes one transposition
    per pair (i in a, j in b) with i > j, so bit j of b counts the bits of a
    above it.
    """
    parity = above = np.zeros(np.broadcast(a, b).shape, dtype=np.result_type(a, b))
    for bit in reversed(range(m)):
        parity = parity ^ ((b >> bit) & 1 & above)
        above = above ^ ((a >> bit) & 1)
    return np.where(parity, -1, 1)


def _mono_mul(bar1: int, ub1: int, bar2: int, ub2: int):
    """Plain (wedge) product of two canonical monomials; None when it vanishes."""
    if bar1 & bar2 or ub1 & ub2:
        return None
    sign = -1 if (ub1.bit_count() & bar2.bit_count() & 1) else 1
    sign *= _merge_sign(bar1, bar2) * _merge_sign(ub1, ub2)
    return sign, bar1 | bar2, ub1 | ub2


def _half_pair_sign(n: int) -> int:
    """(-1)**(n*(n-1)/2)."""
    return -1 if (n * (n - 1) // 2) & 1 else 1


class GrassmannElement:
    """Sparse linear combination of normal-ordered monomials; immutable.

    Its value is two read-only arrays, built at construction: the sorted
    `to_vector` indices bar * 2**m + unbar of its terms, which is the order
    of sorting their Monomials, and their complex coefficients (`arrays()`).
    The constructor takes a map Monomial -> coefficient and rejects a
    generator outside [1, m]; code that holds arrays (`from_operator`,
    `change_generators`, `prune`, scalar products) uses `from_vector` or
    `_from_arrays`.  `terms` is the value as a read-only sorted map, built
    from the arrays on first use for the monomial-pair kernels (`star`,
    `multiply`, `involution`, `star_trace`).  `__setattr__` refuses every
    assignment, so the attributes are written to the instance dict.
    """

    def __init__(self, m: int, terms: dict | None = None) -> None:
        terms = {} if terms is None else terms
        index = []
        for bar, unbar in terms:
            if (bar | unbar) >> m:
                raise ValueError(f"{Monomial(bar, unbar)} references generators outside [1, {m}]")
            index.append((bar << m) | unbar)
        index = np.array(index, dtype=np.intp)
        order = index.argsort(kind="stable")
        coeffs = np.fromiter(terms.values(), complex, len(index))
        self.__dict__.update(m=m, _arrays=_read_only(index[order], coeffs[order]))

    @classmethod
    def _from_arrays(cls, m: int, index: np.ndarray, coeffs: np.ndarray) -> "GrassmannElement":
        """An element from sorted, distinct to_vector indices and their complex coefficients."""
        self = cls.__new__(cls)
        self.__dict__.update(m=m, _arrays=_read_only(index, coeffs))
        return self

    @classmethod
    def from_vector(cls, m: int, vec: np.ndarray) -> "GrassmannElement":
        """The element whose to_vector() is `vec`: its entries that are not exactly zero."""
        index = np.flatnonzero(vec)
        return cls._from_arrays(m, index, np.asarray(vec, dtype=complex)[index])

    @functools.cached_property
    def terms(self) -> MappingProxyType:
        """Read-only map Monomial -> coefficient in sorted order; built from the arrays on first use."""
        index, coeffs = self._arrays
        bar, unbar = _split_index(index, self.m)
        return MappingProxyType(dict(zip(map(Monomial, bar, unbar), coeffs.tolist())))

    def __setattr__(self, name, value):
        raise AttributeError(f"GrassmannElement is immutable; cannot set {name!r}")

    def __reduce__(self):
        return GrassmannElement, (self.m, self.terms.copy())

    def __repr__(self) -> str:
        return f"GrassmannElement(m={self.m!r}, terms={self.terms.copy()!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        (ia, ca), (ib, cb) = self.arrays(), other.arrays()
        return self.m == other.m and np.array_equal(ia, ib) and np.array_equal(ca, cb)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (index, coeffs): sorted to_vector indices and their complex coefficients."""
        return self._arrays

    def __add__(self, other: "GrassmannElement") -> "GrassmannElement":
        _same_m(self, other)
        out = self.terms.copy()
        for k, c in other.terms.items():
            _acc(out, k, c)
        return GrassmannElement(self.m, out)

    def __sub__(self, other: "GrassmannElement") -> "GrassmannElement":
        return self + (-1.0) * other

    def __neg__(self) -> "GrassmannElement":
        return (-1.0) * self

    def __mul__(self, scalar) -> "GrassmannElement":
        c = complex(scalar)
        if c == 0:
            return GrassmannElement(self.m, {})
        index, coeffs = self.arrays()
        return GrassmannElement._from_arrays(self.m, index, coeffs * c)

    __rmul__ = __mul__

    def coefficient(self, bar: Iterable[int], unbar: Iterable[int]) -> complex:
        return self.terms.get(Monomial.from_indices(bar, unbar, self.m), 0j)

    def norm_max(self) -> float:
        coeffs = self.arrays()[1]
        return float(np.abs(coeffs).max()) if coeffs.size else 0.0

    def to_vector(self) -> np.ndarray:
        """Dense coefficients, length 4**m, monomial (bar, unbar) at bar * 2**m + unbar."""
        vec = np.zeros(1 << (2 * self.m), dtype=complex)
        index, coeffs = self.arrays()
        vec[index] = coeffs
        return vec


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


def _same_m(a: GrassmannElement, b: GrassmannElement) -> None:
    if a.m != b.m:
        raise ValueError(f"mismatched generator counts: {a.m} vs {b.m}")


def _check_m(m: int, cap: int) -> None:
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"generator count must be a positive integer, got {m!r}")
    if m > cap:
        raise ValueError(f"generator count {m} exceeds cap {cap}")


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


def zero(m: int) -> GrassmannElement:
    _check_m(m, ELEMENT_CAP)
    return GrassmannElement(m, {})


def unit(m: int) -> GrassmannElement:
    _check_m(m, ELEMENT_CAP)
    return GrassmannElement(m, {Monomial(0, 0): 1 + 0j})


def psi(i: int, m: int) -> GrassmannElement:
    """Single plain generator p_i as an element."""
    return make_element(m, [((), (i,), 1.0)])


def psibar(i: int, m: int) -> GrassmannElement:
    """Single conjugated generator pbar_i as an element."""
    return make_element(m, [((i,), (), 1.0)])


def monomial_element(mono: Monomial, m: int, coeff: complex = 1.0) -> GrassmannElement:
    _check_m(m, ELEMENT_CAP)
    return GrassmannElement(m, {mono: complex(coeff)})


def prune(a: GrassmannElement, rel_tol: float = PRUNE_REL_TOL) -> GrassmannElement:
    """Drop coefficients at or below rel_tol times the largest magnitude, by one mask.

    A NaN or infinite coefficient raises instead of being dropped.
    """
    index, coeffs = a.arrays()
    size = np.abs(coeffs)  # finite exactly where the coefficient is
    if not np.isfinite(size).all():
        k = np.flatnonzero(~np.isfinite(size))[:1]
        (bar,), (unbar,) = _split_index(index[k], a.m)
        raise ValueError(f"non-finite coefficient {complex(coeffs[k][0])} of "
                         f"{Monomial(bar, unbar)}")
    if not size.size:
        return a
    keep = size > rel_tol * size.max()
    return GrassmannElement._from_arrays(a.m, index[keep], coeffs[keep])


def multiply(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """Plain (wedge) product, bilinear over the monomial products."""
    _same_m(a, b)
    out: dict = {}
    for (bar1, ub1), ca in a.terms.items():
        for (bar2, ub2), cb in b.terms.items():
            mm = _mono_mul(bar1, ub1, bar2, ub2)
            if mm is None:
                continue
            sign, bar, ub = mm
            _acc(out, Monomial(bar, ub), sign * ca * cb)
    return GrassmannElement(a.m, out)


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
    because the pairing cost grows as 16**m.
    """
    _same_m(a, b)
    _check_m(a.m, STAR_CAP)
    return GrassmannElement(a.m, _star_terms(a.terms, b.terms, a.m))


def _star_terms(a_terms, b_terms, m: int) -> dict:
    """The star product of two maps Monomial -> coefficient as a new map, with no STAR_CAP check.

    The cost is the number of monomial pairs, so the map builds, whose
    factors are short words, stay cheap at any m up to ELEMENT_CAP.
    """
    out: dict = {}
    b_list = [(bar, unbar, cb) for (bar, unbar), cb in b_terms.items()]
    for (a_bar, a_unbar), ca in a_terms.items():
        for b_bar, b_unbar, cb in b_list:
            c = ca * cb
            for km, cm in _star_monomials_terms(a_bar, a_unbar, b_bar, b_unbar, m):
                _acc(out, km, c * cm)
    return out


def involution(a: GrassmannElement) -> GrassmannElement:
    """Antilinear involution: reverses factors and conjugates generators.

    On a monomial it swaps the bar/unbar index sets and multiplies by
    (-1)**(s_I + s_J) with s_X = |X|(|X|-1)/2; satisfies a** = a and
    (a * b)^star-involution = b* star a*.
    """
    out = {}
    for (bar, ub), c in a.terms.items():
        s = _half_pair_sign(bar.bit_count()) * _half_pair_sign(ub.bit_count())
        out[Monomial(ub, bar)] = s * complex(c).conjugate()
    return GrassmannElement(a.m, out)


def raw_integral(a: GrassmannElement) -> complex:
    """Top-coefficient extraction: the iterated pair-derivative functional.

    Left derivatives that anticommute past preceding generators fix the sign
    of the full monomial at (-1)**(m(m+1)/2); everything below the top
    monomial integrates to zero.
    """
    m = a.m
    top = (1 << m) - 1
    c = a.terms.get(Monomial(top, top))
    if c is None:
        return 0j
    sign = -1 if (m * (m + 1) // 2) & 1 else 1
    return sign * c


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
    tot = 0j
    m = a.m
    for (bar, ub), c in a.terms.items():
        if bar != ub:
            continue
        k = bar.bit_count()
        tot += c * (_half_pair_sign(k) * (1 << (m - k)))
    return tot


def _pair_trace(I: int, J: int, K: int, L: int, m: int) -> int:
    """trace_integral(star_monomials((I, J), (K, L))) as an exact integer.

    Zero unless the index sets interlock (I\\T = J\\S and L\\T = K\\S for
    S = J&K, T = I&L); otherwise a signed power of two.  The one sign kernel
    behind pair_integral_closed_form, star_trace and moment_rows;
    _interlocking enumerates the pairs where it is nonzero.
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


def pair_integral_closed_form(a: Monomial, b: Monomial, m: int) -> complex:
    """Closed form of trace_integral(star_monomials(a, b)).

    Vanishes unless the index sets interlock; otherwise the value is a signed
    power of two.  Serves as the sign-convention oracle.
    """
    _check_m(m, ELEMENT_CAP)
    return complex(_pair_trace(a.bar, a.unbar, b.bar, b.unbar, m))


def _interlocking(K: int, L: int, m: int):
    """The 2**(m - |K ^ L|) monomials (I, J) whose pair trace with (K, L) is nonzero.

    They are I = (L & ~K) | s and J = (K & ~L) | s for every s inside the
    bits where K and L agree.
    """
    free = ((1 << m) - 1) & ~(K ^ L)
    only_l = L & ~K
    only_k = K & ~L
    sub = free
    while True:
        yield only_l | sub, only_k | sub
        if sub == 0:
            return
        sub = (sub - 1) & free


def star_trace(a: GrassmannElement, b: GrassmannElement) -> complex:
    """trace_integral(star(a, b)) evaluated without expanding the star.

    The trace is cyclic, so the monomials t of the element with fewer terms
    are walked and only the monomials of the other that interlock with t are
    looked up.
    """
    _same_m(a, b)
    m = a.m
    if len(a.terms) < len(b.terms):
        a, b = b, a
    terms = a.terms
    tot = 0j
    for (K, L), cb in b.terms.items():
        for I, J in _interlocking(K, L, m):
            ca = terms.get((I, J))
            if ca is not None:
                tot += ca * cb * _pair_trace(I, J, K, L, m)
    return tot


def moment_rows(monomials: Iterable[Monomial], m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The functionals a -> star_trace(a, t), t in `monomials`, as sparse rows.

    Returns COO arrays (row, col, val) over a.to_vector(): row r holds the
    monomials (I, J) that interlock with the r-th monomial t = (K, L), each
    valued by the pair kernel.
    """
    rows, cols, vals = [], [], []
    for r, (K, L) in enumerate(monomials):
        for I, J in _interlocking(K, L, m):
            rows.append(r)
            cols.append((I << m) | J)
            vals.append(_pair_trace(I, J, K, L, m))
    return (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
            np.array(vals, dtype=float))


def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _coo_apply(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, vec: np.ndarray,
               n: int) -> np.ndarray:
    """out[rows] += vals * vec[cols] over COO arrays, duplicates summed in array order."""
    prod = vals * vec[cols]
    return np.bincount(rows, prod.real, n) + 1j * np.bincount(rows, prod.imag, n)


def expectation(density: GrassmannElement, observable: GrassmannElement,
                tol: float = DENSITY_TRACE_TOL) -> complex:
    """Trace of density * observable under the star product.

    The density must already be normalized: a trace away from 1 by more than
    tol raises instead of renormalizing silently.
    """
    _same_m(density, observable)
    tr = trace_integral(density)
    if abs(tr - 1.0) > tol:
        raise ValueError(f"density is not normalized: trace_integral = {tr}")
    return star_trace(density, observable)


@functools.lru_cache(maxsize=ELEMENT_CAP + 1)
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


def change_generators(a: GrassmannElement, u: np.ndarray, tol: float = 1e-10) -> GrassmannElement:
    """Rewrite `a` under the substitution chi_i = sum_j u[i, j] psi_j.

    The coefficients of `a` are read as coefficients over the chi generators
    (conjugate matrix for the barred ones) and expanded over the psi basis.
    An ordered block chi_J expands as sum_K det(u[J, K]) psi_K, so with C the
    2**m x 2**m coefficient matrix (rows barred, columns plain) the new one
    is the compound-matrix product conj(U)^T C U, U[J, K] = det(u[J, K]) for
    |J| = |K|.  It is taken block by block over the subset sizes, with the
    minors of each size from one batched determinant, so no product exceeds
    C(m, m/2) squared (20 x 20 at m = 6); blocks of C that hold no term are
    skipped and stay exactly zero, and only exactly-zero coefficients are
    dropped from the result.  `u` must be unitary within tol; both integrals
    are invariant under this map.
    """
    m = a.m
    u = np.asarray(u, dtype=complex)
    if u.shape != (m, m):
        raise ValueError(f"expected a {m}x{m} matrix, got shape {u.shape}")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(m)))
    if dev > tol:
        raise ValueError(f"matrix is not unitary: max |u*u - 1| = {dev:.3e}")
    order, groups = _degree_order(m)
    minors = [np.linalg.det(u[rows[:, None, :, None], rows[None, :, None, :]])
              for _, rows in groups]
    coeffs = a.to_vector().reshape(1 << m, 1 << m)[np.ix_(order, order)]
    out = np.zeros_like(coeffs)
    for (bars, _), bar_minors in zip(groups, minors):
        for (ubs, _), ub_minors in zip(groups, minors):
            c = coeffs[bars, ubs]
            if c.any():
                out[bars, ubs] = bar_minors.conj().T @ c @ ub_minors
    natural = np.empty_like(out)
    natural[np.ix_(order, order)] = out
    return GrassmannElement.from_vector(m, natural.ravel())


def elements_close(a: GrassmannElement, b: GrassmannElement, tol: float = 1e-12) -> bool:
    return max_coeff_difference(a, b) <= tol


def max_coeff_difference(a: GrassmannElement, b: GrassmannElement) -> float:
    _same_m(a, b)
    keys = set(a.terms) | set(b.terms)
    return max((abs(a.terms.get(k, 0j) - b.terms.get(k, 0j)) for k in keys), default=0.0)
