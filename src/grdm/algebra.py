"""Exact arithmetic on a finite Grassmann algebra with conjugate generator pairs.

The algebra over anticommuting generators {pbar_1..pbar_m, p_1..p_m} is spanned
by normal-ordered monomials: all conjugated (barred) generators to the left,
both groups in ascending index order.  On top of the plain wedge product the
module provides the star product, which mirrors operator composition on the
2^m-dimensional Fock space, the involution, and the two integration
functionals (top-coefficient extraction and the weighted trace form).

Sign bookkeeping is done on bitmasks with popcount-prefix counting, so every
coefficient produced from integer inputs is an exact signed power of two.
The sign rules are written once as numpy functions on arrays of masks that
never loop over monomials: they gather from per-m bit tables built by one
loop over the m bits (`_bit_tables`, `_merge_parity`), and the subset
expansions loop over the m bits themselves.  They are the monomial-pair
wedge product (`_mono_products`), the monomial-pair star product expanded
over its contracted subsets (`_star_pairs`) and the pair trace with its
interlocking enumeration (`_pair_traces`, `_trace_rows`).  Every element
operation, `moment_rows` and the cached map builds of `conditions` and
`quasifree` run on them, a product's term pairs in bounded chunks
(`_pair_sums`).

Elements are immutable after construction and every operation is a pure
function.  The only shared state is a set of caches keyed by value: the
per-m bit tables, the memo of the scalar monomial star product behind
`star_monomials`, which is also the reference the kernel is tested against,
and the per-m subset orderings of the compound matrices (`_degree_order`),
which change_generators and the quasifree build read.
"""

from __future__ import annotations

import functools
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, NamedTuple

import numpy as np

# Every tolerance and cap of the package, named once.  "rel" tolerances scale
# with 1 + max|X| of what they judge (`_scale`); the prunes' with the largest |c|.
ELEMENT_CAP = 10     # monomial-pair fast paths stay exact up to here
STAR_CAP = 6         # full-element star products; dense pairing cost grows as 16**m
FOCK_CAP = 8         # the Fock oracle and the fuzz campaign
QUASIFREE_CAP = 8    # quasifree build and verify
PRUNE_REL_TOL = 1e-14           # rel to the largest magnitude: prune's default
OPERATOR_PRUNE_REL_TOL = 1e-13  # rel, fock.from_operator: roundoff of its signed subset sums
DENSITY_TRACE_TOL = 1e-8     # |trace - 1| of a density element: expectation and the pdms
HERMITIAN_INPUT_TOL = 1e-8   # max |X - X*| of a gamma or Gamma input
FORM_HERMITIAN_TOL = 1e-10   # rel, max |F - F*| of every condition form matrix
PSD_REL_TOL = 1e-9           # rel, how far below 0 a passing margin may lie
ANTISYMMETRY_TOL = 1e-10     # rel, require_totally_antisymmetric
UNITARY_TOL = 1e-10          # max |u*u - 1|: change_generators and contraction_check's onb
BOUNDARY_TOL = 1e-10         # quasifree: eigenvalues this close to 0 or 1 are snapped
FOCK_DENSITY_TOL = 1e-10     # fock.validate_density's default
SECTOR_TOL = 1e-8            # max |N rho - n rho| of a one-sector density
SLATER_NORM_TOL = 1e-12      # smallest Slater state norm before normalizing
ELEMENTS_CLOSE_TOL = 1e-12   # elements_close's default
SELFTEST_EXACT_TOL = 1e-12   # grdm selftest: identities exact up to a few roundings
SELFTEST_RANDOM_TOL = 1e-10  # grdm selftest: identities on random coefficients


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


def _merge_sign(a: int, b: int) -> int:
    """Sign for sorting the concatenation of two disjoint ascending blocks."""
    par = 0
    y = b
    while y:
        low = y & -y
        par ^= (a >> low.bit_length()).bit_count() & 1
        y ^= low
    return -1 if par else 1


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

    For one pair of disjoint blocks it is the parity of `_merge_sign`:
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
    one another, in the order and with the signs of `_star_monomials_terms`,
    and a pair whose product vanishes has none.  For (I, J) * (K, L) with
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
    `_from_arrays`.  Every operation works on the arrays; `terms`, the value
    as a read-only sorted map built on first use, serves `repr`, pickling and
    `coefficient`.  `__setattr__` refuses every assignment, so the
    attributes are written to the instance dict.
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


# One check per kind of input.  Each compares as `not dev <= tol`, which holds
# for a NaN deviation, so a NaN or infinite input fails instead of passing;
# the matrix and density checks test finiteness first, so no arithmetic on a
# non-finite input warns before they raise.

def _check_m(m: int, cap: int) -> None:
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"generator count must be a positive integer, got {m!r}")
    if m > cap:
        raise ValueError(f"generator count {m} exceeds cap {cap}")


def _scale(x: np.ndarray) -> float:
    """1 + max|x|; the checks compare dev / _scale(x), NaN when x holds a NaN or an infinity."""
    return 1.0 + (float(np.max(np.abs(x))) if x.size else 0.0)


def _require_finite(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} holds a non-finite entry")


def _require_hermitian(mat, name: str, tol: float = HERMITIAN_INPUT_TOL) -> np.ndarray:
    """`mat` as a finite complex square matrix whose max |mat - mat*| is within tol."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    _require_finite(mat, name)
    dev = np.max(np.abs(mat - mat.conj().T))
    if not dev <= tol:
        raise ValueError(f"{name} is not Hermitian: max deviation {dev:.3e}")
    return mat


def _require_unitary(u, m: int, name: str) -> np.ndarray:
    """`u` as a finite complex m x m matrix whose max |u*u - 1| is within UNITARY_TOL."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (m, m):
        raise ValueError(f"{name} must be a {m}x{m} matrix, got shape {u.shape}")
    _require_finite(u, name)
    dev = np.max(np.abs(u.conj().T @ u - np.eye(m)))
    if not dev <= UNITARY_TOL:
        raise ValueError(f"{name} is not unitary: max |u*u - 1| = {dev:.3e}")
    return u


def _require_unit_trace(trace: complex) -> None:
    """A density element's trace_integral must be 1 within DENSITY_TRACE_TOL."""
    if not abs(trace - 1.0) <= DENSITY_TRACE_TOL:
        raise ValueError(f"density element is not normalized: trace_integral = {complex(trace)}")


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


def _involution_terms(index: np.ndarray, coeffs: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """`involution` term by term on (index, coeff) arrays, in the same order."""
    bar, ub = _split(index, m)
    parity = _merge_parity([(bar, bar), (ub, ub)], m)
    return (ub << m) | bar, coeffs.conj() * (1 - 2 * parity)


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


def moment_rows(monomials: Iterable[Monomial], m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The functionals a -> star_trace(a, t), t in `monomials`, as sparse rows.

    Returns COO arrays (row, col, val) over a.to_vector(): row r holds the
    monomials (I, J) that interlock with the r-th monomial t = (K, L), each
    valued by the pair trace (`_trace_rows`).
    """
    bar, unbar = np.array(list(monomials), dtype=np.intp).reshape(-1, 2).T
    return _moment_rows((bar << m) | unbar, m)


def _moment_rows(index: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`moment_rows` of the monomials with the given to_vector indices."""
    row, col, val = _trace_rows(*_split(index, m), m)
    return row, col, val.astype(float)


def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _coo_apply(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, vec: np.ndarray,
               n: int) -> np.ndarray:
    """out[rows] += vals * vec[cols] over COO arrays, duplicates summed in array order."""
    prod = vals * vec[cols]
    return np.bincount(rows, prod.real, n) + 1j * np.bincount(rows, prod.imag, n)


def expectation(density: GrassmannElement, observable: GrassmannElement) -> complex:
    """Trace of density * observable under the star product.

    The density must already be normalized: a trace away from 1 by more than
    DENSITY_TRACE_TOL raises instead of renormalizing silently.
    """
    _same_m(density, observable)
    _require_finite(density.arrays()[1], "density element")
    _require_unit_trace(trace_integral(density))
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


def _compound_blocks(u: np.ndarray) -> list:
    """The compound matrices of u, one per subset size k, over `_degree_order`'s subsets.

    Block k holds det(u[J, K]) for the k-subsets J (rows) and K (columns),
    each size's minors from one batched determinant; block 0 is [[1]].
    """
    return [np.linalg.det(u[rows[:, None, :, None], rows[None, :, None, :]])
            for _, rows in _degree_order(len(u))[1]]


def change_generators(a: GrassmannElement, u: np.ndarray) -> GrassmannElement:
    """Rewrite `a` under the substitution chi_i = sum_j u[i, j] psi_j.

    The coefficients of `a` are read as coefficients over the chi generators
    (conjugate matrix for the barred ones) and expanded over the psi basis.
    An ordered block chi_J expands as sum_K det(u[J, K]) psi_K, so with C the
    2**m x 2**m coefficient matrix (rows barred, columns plain) the new one
    is the compound-matrix product conj(U)^T C U, U[J, K] = det(u[J, K]) for
    |J| = |K|.  It is taken block by block over the subset sizes, with the
    minors of each size from one batched determinant (`_compound_blocks`),
    so no product exceeds C(m, m/2) squared (20 x 20 at m = 6); blocks of C
    that hold no term are skipped and stay exactly zero, and only
    exactly-zero coefficients are dropped from the result.  `u` must be
    unitary within UNITARY_TOL; both integrals are invariant under this map.
    """
    m = a.m
    u = _require_unitary(u, m, "u")
    order, groups = _degree_order(m)
    minors = _compound_blocks(u)
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


def elements_close(a: GrassmannElement, b: GrassmannElement, tol: float = ELEMENTS_CLOSE_TOL) -> bool:
    return max_coeff_difference(a, b) <= tol


def max_coeff_difference(a: GrassmannElement, b: GrassmannElement) -> float:
    _same_m(a, b)
    (ia, ca), (ib, cb) = a.arrays(), b.arrays()
    diff = _sum_terms(np.concatenate((ia, ib)), np.concatenate((ca, -cb)))[1]
    return float(np.abs(diff).max()) if diff.size else 0.0
