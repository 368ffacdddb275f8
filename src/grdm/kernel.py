"""The Grassmann element kernel: the element type, the array sign kernels and the moment layer.

The algebra over anticommuting generators {pbar_1..pbar_m, p_1..p_m} is
spanned by normal-ordered monomials (`Monomial`, a pair of index bitmasks):
all conjugated (barred) generators to the left, both groups in ascending
index order.  A `GrassmannElement` holds its terms as two read-only arrays,
the sorted to_vector indices bar * 2**m + unbar and their complex
coefficients.

The sign rules are written once, as numpy functions on arrays of masks that
never loop over monomials: they gather from per-m bit tables built by one
loop over the m bits (`_bit_tables`, `_merge_parity`), and the subset
expansions loop over the m bits themselves.  They are the monomial-pair
wedge product (`_mono_products`), the monomial-pair star product expanded
over its contracted subsets (`_star_pairs`) and the pair trace with its
interlocking enumeration (`_pair_traces`, `_trace_rows`); a product's term
pairs run through them in bounded chunks (`_pair_sums`).  Every coefficient
produced from integer inputs is an exact signed power of two.

The moment layer writes a linear functional of a density as a cached sparse
map on its coefficient vector: `_linear_map` builds one from COO entries
(row, t, coeff) over the moments star_trace(kappa, t) (`_moment_rows`), and
`_moment_map` holds, per m, the moments with |bar| = |unbar| <= 2 that the
pdms and the condition forms read; `_moments` applies it and checks the
trace, and `_pdm1` reads gamma off the result.  The per-m subset orderings
and compound matrices (`_degree_order`, `_compound_blocks`) serve the
quasifree build.

This module imports numpy and `limits` alone, so a module that needs
elements but not the public element operations (`star`, `involution`, the
integrals, in `algebra`) compiles no more than it runs.

Elements are immutable after construction and every function here is pure.
The only shared state is a set of caches keyed by value: the per-m bit
tables, subset orderings and moment maps.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, NamedTuple

import numpy as np

from .limits import (
    ELEMENT_CAP,
    PRUNE_REL_TOL,
    _check_m,
    _coo_apply,
    _read_only,
    _require_finite,
    _require_unit_trace,
)


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


def _split_index(index: np.ndarray, m: int) -> tuple[list, list]:
    """The bar and unbar masks of to_vector indices bar * 2**m + unbar, as int lists."""
    bar, unbar = _split(index, m)
    return bar.tolist(), unbar.tolist()


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


@functools.lru_cache(maxsize=None)
def _bit_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every m-bit mask x: its popcount, its parity, and the mask of the parities above it.

    Bit j of the third table is the parity of the bits of x above j.  One
    loop over the m bits builds all three, once per m; the sign kernels
    gather from them.
    """
    x = np.arange(1 << m)
    count, above = np.zeros_like(x), np.zeros_like(x)
    for bit in reversed(range(m)):
        above |= (count & 1) << bit
        count += (x >> bit) & 1
    return _read_only(count, count & 1, above)


def _popcount(x: np.ndarray, m: int) -> np.ndarray:
    """The number of set bits of each m-bit mask in an array."""
    return _bit_tables(m)[0][x]


def _parity(x: np.ndarray, m: int) -> np.ndarray:
    """The parity (0 or 1) of the number of set bits of each m-bit mask in an array."""
    return _bit_tables(m)[1][x]


def _merge_parity(blocks: list, m: int) -> np.ndarray:
    """The parity (0 or 1) of the pairs (i in a, j in b) with i > j, summed over the (a, b) blocks.

    For one pair of disjoint blocks it is the parity of `algebra._merge_sign`:
    sorting the concatenation of two ascending blocks takes one transposition
    per such pair, so bit j of b counts the bits of a above it.  That count
    is linear over XOR in a and in b, and so is parity, so several merges
    share one parity lookup; the block (x, x) counts |x| (|x| - 1) / 2.
    """
    _, parity, above = _bit_tables(m)
    acc = 0
    for a, b in blocks:
        acc = acc ^ (above[a] & b)
    return parity[acc]


def _split(index: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The bar and unbar masks of to_vector indices bar * 2**m + unbar, as arrays."""
    return index >> m, index & ((1 << m) - 1)


def _generators(m: int) -> np.ndarray:
    """The to_vector indices of the 2m generators, pbar_1 .. pbar_m then p_1 .. p_m."""
    return np.concatenate((1 << (np.arange(m) + m), 1 << np.arange(m)))


def _mono_products(ia: np.ndarray, ib: np.ndarray, m: int):
    """Wedge products of the monomial pairs (ia[p], ib[p]), given as to_vector indices.

    Returns (pair, index, sign): the pairs whose product does not vanish (no
    generator repeats), their product monomials and their signs, +1 or -1.
    """
    bar1, ub1 = _split(ia, m)
    bar2, ub2 = _split(ib, m)
    pair = np.flatnonzero(((bar1 & bar2) | (ub1 & ub2)) == 0)
    bar1, ub1, bar2, ub2 = bar1[pair], ub1[pair], bar2[pair], ub2[pair]
    # move the block bar2 left past ub1, |ub1| |bar2| transpositions, then
    # merge the barred blocks and the plain blocks into ascending order
    parity = (_parity(ub1, m) & _parity(bar2, m)) ^ _merge_parity([(bar1, bar2), (ub1, ub2)], m)
    return pair, ia[pair] | ib[pair], 1 - 2 * parity


def _segments(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For groups of the given sizes: each slot's group, and its counter, counts - 1 down to 0."""
    group = np.repeat(np.arange(len(counts)), counts)
    return group, (np.cumsum(counts) - 1)[group] - np.arange(len(group))


def _deposit(counter: np.ndarray, mask: np.ndarray, m: int) -> np.ndarray:
    """The low bits of each counter placed on the set bits of its mask, lowest first.

    A counter running from 2**|mask| - 1 down to 0 lists the subsets of the
    mask in descending order, as `sub = (sub - 1) & mask` does.
    """
    out = np.zeros_like(mask)
    used = int(np.bitwise_or.reduce(mask)) if mask.size else 0
    for bit in range(m):
        if used >> bit & 1:
            has = (mask >> bit) & 1
            out |= (counter & has) << bit
            counter = counter >> has
    return out


def _star_pairs(ia: np.ndarray, ib: np.ndarray, m: int):
    """Star products of the monomial pairs (ia[p], ib[p]), to_vector indices, fully expanded.

    Returns (pair, index, sign), one entry per term: pair p's terms follow
    one another, in the order and with the signs of
    `algebra._star_monomials_terms`, and a pair whose product vanishes has
    none.  For (I, J) * (K, L) with
    S = J & K the contracted block: the core pbar_I p_{J-S} * pbar_{K-S} p_L,
    reordered past S, times the commuting weight prod over the free bits of
    J | K of (1 - pbar p), expanded over the subsets of those bits.
    """
    I, J = _split(ia, m)
    K, L = _split(ib, m)
    S = J & K
    Jr, Kr = J ^ S, K ^ S
    pair = np.flatnonzero(((I & Kr) | (Jr & L)) == 0)
    I, J, K, L, S, Jr, Kr = (x[pair] for x in (I, J, K, L, S, Jr, Kr))
    # the integrated block, sigma_JS then sigma_S: |S| |J - S| + |S| (|S| - 1) / 2
    # transpositions, and S merges with J - S and with K - S; then the core
    # product as in `_mono_products`, |J - S| |K - S| and two merges
    parity = ((_parity(Jr, m) & _parity(K, m))  # |S| |J - S| + |J - S| |K - S|, K = S ^ (K - S)
              ^ _merge_parity([(S, J | K), (I, Kr), (Jr, L)], m))
    cbar, cub = I | Kr, Jr | L
    avail = S & ~(I | L)  # the bits of J | K in neither core block
    group, counter = _segments(1 << _popcount(avail, m))
    sub = _deposit(counter, avail[group], m)
    cbar, cub = cbar[group], cub[group]
    # each factor -pbar_i p_i of the weight, |sub| + |sub| (|sub| - 1) / 2,
    # then the core times pbar_sub p_sub: |cub| |sub| and two merges
    parity = (parity[group] ^ (_parity(sub, m) & (1 ^ _parity(cub, m)))
              ^ _merge_parity([(sub ^ cbar ^ cub, sub)], m))  # blocks (x, sub) add over XOR in x
    return pair[group], ((cbar | sub) << m) | cub | sub, 1 - 2 * parity


def _pair_traces(I, J, K, L, m: int) -> np.ndarray:
    """trace_integral((I, J) * (K, L)) of arrays of monomial pairs, as exact integers.

    Zero unless the index sets interlock: I - T = J - S and L - T = K - S for
    S = J & K and T = I & L.  Otherwise the contracted blocks S and T reorder
    next to J - S, K - S and I - T, L - T, and the trace of the diagonal
    monomial left over is (-1)**(|J|(|J|-1)/2 + |L|(|L|-1)/2) times
    2**(m - |I | K|).
    """
    S, T = J & K, I & L
    live = ((I ^ T) == (J ^ S)) & ((L ^ T) == (K ^ S))
    # S merges with J - S and K - S, T with I - T and L - T
    parity = _merge_parity([(J, J), (L, L), (S, J ^ K), (T, I ^ L)], m)
    return np.where(live, (1 - 2 * parity) << (m - _popcount(I | K, m)), 0)


def _trace_rows(K: np.ndarray, L: np.ndarray, m: int):
    """The nonzero pair traces trace_integral((I, J) * (K, L)) of the monomials t = (K, L).

    Returns (row, index, value): for each t in turn the 2**(m - |K ^ L|)
    monomials (I, J) that interlock with it, I = (L - K) | s and
    J = (K - L) | s for s inside the bits where K and L agree, listed by s
    descending, and their pair traces, signed powers of two.
    """
    row, counter = _segments(1 << (m - _popcount(K ^ L, m)))
    K, L = K[row], L[row]
    s = _deposit(counter, ((1 << m) - 1) & ~(K ^ L), m)
    I, J = (L & ~K) | s, (K & ~L) | s
    return row, (I << m) | J, _pair_traces(I, J, K, L, m)


def _sum_terms(keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the sums of their coefficients in array order.

    Keys whose coefficients sum to exactly zero are dropped.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    keys = keys[first]
    sums = (np.bincount(inverse, coeffs.real, len(keys))
            + 1j * np.bincount(inverse, coeffs.imag, len(keys)))
    keep = np.flatnonzero(sums)
    return keys[keep], sums[keep]


_PAIR_CHUNK = 1 << 16  # monomial pairs per kernel call in `_pair_sums`


def _pair_sums(kernel, a: tuple, b: tuple, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every term of `a` times every term of `b` under a pair kernel, summed per (row, monomial).

    `a` and `b` are (row, index, coeff) arrays over terms and the product of
    terms p and q lands in row a_row[p] + b_row[q]; `kernel` is
    `_mono_products` or `_star_pairs`.  The pairs go through the kernel in
    chunks of about _PAIR_CHUNK, a's terms outer and b's inner, so a dense
    product never holds all its pairs at once.  Returns the sorted distinct
    keys row * 4**m + index and their coefficients, exact zeros dropped.
    """
    (row_a, ia, ca), (row_b, ib, cb) = a, b
    if not len(ia) or not len(ib):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=complex)
    step = max(1, _PAIR_CHUNK // len(ib))
    parts = []
    for start in range(0, len(ia), step):
        pa, pb = np.divmod(np.arange(start * len(ib), min(start + step, len(ia)) * len(ib)), len(ib))
        pair, index, sign = kernel(ia[pa], ib[pb], m)
        pa, pb = pa[pair], pb[pair]
        parts.append(_sum_terms(((row_a[pa] + row_b[pb]) << (2 * m)) | index,
                                ca[pa] * cb[pb] * sign))
    if len(parts) == 1:
        return parts[0]
    return _sum_terms(*(np.concatenate(part) for part in zip(*parts)))


def _half_pair_sign(n: int) -> int:
    """(-1)**(n*(n-1)/2)."""
    return -1 if (n * (n - 1) // 2) & 1 else 1


class GrassmannElement:
    """Sparse linear combination of normal-ordered monomials; immutable.

    Its value is two read-only arrays, built at construction: the sorted
    `to_vector` indices bar * 2**m + unbar of its terms, which is the order
    of sorting their Monomials, and their complex coefficients (`arrays()`).
    The constructor takes a map Monomial -> coefficient and rejects an m
    outside [1, ELEMENT_CAP] and a generator outside [1, m]; code that holds
    arrays (`from_operator`, `build_quasifree`, `prune`, scalar products)
    uses `from_vector`, which checks m and the vector's length 4**m, or the
    unchecked `_from_arrays`.  Every operation works on the arrays; `terms`,
    the value as a read-only sorted map built on first use, serves `repr`
    and pickling.  `__setattr__` refuses every assignment, so the attributes
    are written to the instance dict.
    """

    def __init__(self, m: int, terms: dict | None = None) -> None:
        _check_m(m, ELEMENT_CAP)
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
        _check_m(m, ELEMENT_CAP)
        if np.shape(vec) != (1 << (2 * m),):
            raise ValueError(f"coefficient vector must have length 4**{m}, got shape {np.shape(vec)}")
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
        (ia, ca), (ib, cb) = self.arrays(), other.arrays()
        index, coeffs = _sum_terms(np.concatenate((ia, ib)), np.concatenate((ca, cb)))
        return GrassmannElement._from_arrays(self.m, index, coeffs)

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

    def norm_max(self) -> float:
        coeffs = self.arrays()[1]
        return float(np.abs(coeffs).max()) if coeffs.size else 0.0

    def to_vector(self) -> np.ndarray:
        """Dense coefficients, length 4**m, monomial (bar, unbar) at bar * 2**m + unbar."""
        vec = np.zeros(1 << (2 * self.m), dtype=complex)
        index, coeffs = self.arrays()
        vec[index] = coeffs
        return vec


def _same_m(a: GrassmannElement, b: GrassmannElement) -> None:
    if a.m != b.m:
        raise ValueError(f"mismatched generator counts: {a.m} vs {b.m}")


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


def _involution_terms(index: np.ndarray, coeffs: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """`algebra.involution` term by term on (index, coeff) arrays, in the same order."""
    bar, ub = _split(index, m)
    parity = _merge_parity([(bar, bar), (ub, ub)], m)
    return (ub << m) | bar, coeffs.conj() * (1 - 2 * parity)


def _moment_rows(index: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The functionals a -> star_trace(a, t), t the monomials with the given to_vector indices.

    Returns COO arrays (row, col, val) over a.to_vector(): row r holds the
    monomials (I, J) that interlock with the r-th monomial t = (K, L), each
    valued by the pair trace (`_trace_rows`).
    """
    row, col, val = _trace_rows(*_split(index, m), m)
    return row, col, val.astype(float)


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


def _compound_blocks(u: np.ndarray) -> list:
    """The compound matrices of u, one per subset size k, over `_degree_order`'s subsets.

    Block k holds det(u[J, K]) for the k-subsets J (rows) and K (columns),
    each size's minors from one batched determinant; block 0 is [[1]].
    """
    return [np.linalg.det(u[rows[:, None, :, None], rows[None, :, None, :]])
            for _, rows in _degree_order(len(u))[1]]


# ---------------------------------------------------------------------------
# the moment layer: Grassmann-side quantities as linear maps on a density's coefficients

class _LinearMap(NamedTuple):
    """A linear map kappa -> array of `shape`: out = W @ (M @ kappa.to_vector()).

    `moments` (M) holds the rows star_trace(kappa, t) of the monomials t the
    output reads, whose to_vector indices `monomials` lists in row order;
    `combine` (W) sums them, with coefficients, into the flattened output.
    Both are read-only COO triples (row, col, val) whose duplicate entries
    add up; the table maps share `_moment_map`'s M.
    """

    moments: tuple
    monomials: np.ndarray
    combine: tuple
    shape: tuple

    def combine_moments(self, moments: np.ndarray) -> np.ndarray:
        """The map on kappa's moments, M @ kappa.to_vector()."""
        return _coo_apply(*self.combine, moments, math.prod(self.shape)).reshape(self.shape)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """The map on a coefficient vector, kappa.to_vector()."""
        return self.combine_moments(_coo_apply(*self.moments, vec, len(self.monomials)))


def _linear_map(entries: tuple, shape: tuple, m: int, shared: bool = False) -> _LinearMap:
    """The map out[row] = sum of coeff * star_trace(kappa, t) over COO arrays (row, t, coeff).

    Each t is a monomial's to_vector index.  A shared map reads the moments
    of `_moment_map(m)`, which must cover every t; any other gets moment
    rows of just the distinct t its entries name, in ascending order.
    """
    rows, ts, coeffs = entries
    ts = np.asarray(ts, dtype=np.intp)
    if shared:
        moments, monomials = _moment_map(m)
        order = np.argsort(monomials)
        cols = order[np.minimum(np.searchsorted(monomials[order], ts), len(order) - 1)]
        if not np.array_equal(monomials[cols], ts):
            raise ValueError("an entry reads a monomial outside the shared moment map")
    else:
        monomials, cols = np.unique(ts, return_inverse=True)
        moments = _read_only(*_moment_rows(monomials, m))
        monomials.setflags(write=False)
    combine = _read_only(np.asarray(rows, dtype=np.intp), cols.astype(np.intp).ravel(),
                         np.asarray(coeffs, dtype=complex))
    return _LinearMap(moments, monomials, combine, shape)


@functools.lru_cache(maxsize=ELEMENT_CAP)
def _moment_map(m: int) -> tuple[tuple, np.ndarray]:
    """The moment rows of every table quantity at m, and the to_vector index of each row's monomial.

    The monomials are those with |bar| = |unbar| <= 2, which is all that the
    pdms and the five table forms read (the anticommutator cancels the T1/T2
    three-body terms exactly): the unit first, so moment 0 is the trace; then
    pbar_{k+1} p_{l+1} at row 1 + k*m + l; then the two-body monomials.
    """
    ones = 1 << np.arange(m)
    twos = np.array([(1 << k) | (1 << l) for k, l in combinations(range(m), 2)], dtype=np.intp)
    monomials = np.concatenate([[0]] + [((block[:, None] << m) | block).ravel()
                                        for block in (ones, twos)]).astype(np.intp)
    return _read_only(*_moment_rows(monomials, m)), _read_only(monomials)[0]


def _moments(vec: np.ndarray, m: int) -> np.ndarray:
    """The `_moment_map` moments of a density's to_vector(), once its trace is checked to be 1."""
    rows, monomials = _moment_map(m)
    _require_finite(vec, "density element")
    moments = _coo_apply(*rows, vec, len(monomials))
    _require_unit_trace(moments[0])
    return moments


def _pdm1(moments: np.ndarray, m: int) -> np.ndarray:
    return np.ascontiguousarray(moments[1:1 + m * m].reshape(m, m).T)
