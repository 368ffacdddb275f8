"""Slow reference implementations used only to validate the fast paths.

The reference star product evaluates the defining Gaussian-convolution
integral literally on a doubled algebra: the original generators occupy the
low index block, the integration generators the high block, and the
convolution weight is multiplied out before a left-derivative Berezin
integral eliminates the high block.

The paper's change of generators, `change_generators`, rewrites an element
under a unitary substitution by compound-matrix blocks, the blocks that the
quasifree build writes into kappa directly; its own reference expands every term
over each pair of minor determinants, one accumulation per (barred minor,
plain minor) pair.

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

The dense Fock references multiply the 2^m x 2^m ladder matrices, which
live here with the Slater states built from them (`creation`,
`annihilation`, `slater_state`): to_operator as a sum of ordered ladder
products, one matrix product per monomial, and the pdms as traces of rho
times ladder words, with the dense number operator for their
particle-number identities.  The from_operator map is
built entry by entry, with the scalar sign kernels per entry.

The dense closed-form references build the Q and G matrices from
(gamma, Gamma) with kron products and einsum, against which the index maps
of the condition table are checked, with the pair exchange matrix and the
specialized T2 value `t2a_value` beside them.  The per-pair T1 and T2 values
`t1_bilinear` / `t2_bilinear` evaluate the third-order conditions on two
tensors by einsum, one pair at a time: the references for the T1/T2 index
maps and for the per-tensor values `check_T1` / `check_T2_generalized`,
which read the T1/T2 maps at a tensor's coordinates.  The hand-derived
probe tensors and terms of every row (`HAND_FORMS`), evaluated through the
same `closed._term_entries` by `hand_index_form`, are the paper's formulas
as written, against which the forms derived from the words are checked.

The quasifree references are the per-word Wick pairing recursion in the
eigenbasis, `wick_expectation`, against which the batched Wick side is
checked, and the diagonal build from mode occupations.
"""

import functools
from itertools import combinations

import numpy as np

from grdm import quasifree
from grdm.algebra import (_acc, _merge_sign, _star_monomials_terms, multiply, psi, psibar, star,
                          star_trace, trace_integral)
from grdm.closed import CONDITIONS, _index_map, _source, _term_entries, _validate_pair
from grdm.kernel import (GrassmannElement, Monomial, _compound_blocks, _degree_order,
                         _half_pair_sign, _indices)
from grdm.limits import (BOUNDARY_TOL, FOCK_CAP, _check_m, _coo_apply, _read_only, _require_finite,
                        _require_unitary, _scale)


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


def build_quasifree_reference(gamma):
    """(u, lambdas) and kappa of gamma, through the mode product, its trace and one rotation.

    Eigenvalues within BOUNDARY_TOL of 0 take the factor -nbar n + 1, those
    within it of 1 the occupied factor nbar n, and the others
    (lambda / (1 - lambda) - 1) nbar n + 1, before the product is normalized.
    """
    lam, u = np.linalg.eigh(gamma)
    lam = np.clip(lam, 0.0, 1.0)
    r = np.zeros(len(lam))
    occupied = np.zeros(len(lam), dtype=bool)
    for i, li in enumerate(lam):
        if li <= BOUNDARY_TOL:
            r[i] = -1.0
        elif li >= 1.0 - BOUNDARY_TOL:
            occupied[i] = True
        else:
            r[i] = li / (1.0 - li) - 1.0
    element = mode_product_expansion(r, occupied=occupied)
    return (u, lam), change_generators((1.0 / trace_integral(element)) * element, u.conj().T)


SLATER_NORM_TOL = 1e-12  # smallest Slater state norm before normalizing


@functools.cache
def _ladders(m):
    """The read-only dense creators and annihilators of modes 1..m, Jordan-Wigner signed."""
    _check_m(m, FOCK_CAP)
    dim = 1 << m
    ann = []
    for i in range(m):
        bit = 1 << i
        mat = np.zeros((dim, dim), dtype=complex)
        for n in range(dim):
            if n & bit:
                sign = -1.0 if (n & (bit - 1)).bit_count() & 1 else 1.0
                mat[n ^ bit, n] = sign
        ann.append(mat)
    return _read_only(*(a.conj().T.copy() for a in ann)), _read_only(*ann)


def creation(i, m):
    """Creation operator for mode i (1-based) on the 2^m Fock space."""
    _check_m(m, FOCK_CAP)
    if not 1 <= i <= m:
        raise ValueError(f"mode index {i} outside [1, {m}]")
    return _ladders(m)[0][i - 1]


def annihilation(i, m):
    """Annihilation operator for mode i (1-based); kills the vacuum state."""
    _check_m(m, FOCK_CAP)
    if not 1 <= i <= m:
        raise ValueError(f"mode index {i} outside [1, {m}]")
    return _ladders(m)[1][i - 1]


def slater_state(orbitals, m):
    """State vector c*(v_1)...c*(v_N) applied to the vacuum, columns = orbitals."""
    orbitals = np.asarray(orbitals, dtype=complex)
    crt, _ = _ladders(m)
    vec = np.zeros(1 << m, dtype=complex)
    vec[0] = 1.0
    for col in reversed(range(orbitals.shape[1])):
        op = sum(orbitals[k, col] * crt[k] for k in range(m))
        vec = op @ vec
    nrm = np.linalg.norm(vec)
    if not nrm >= SLATER_NORM_TOL:
        raise ValueError("orbitals are linearly dependent or not finite; Slater state vanishes")
    return vec / nrm


@functools.cache
def _ordered_products(m):
    """C*_I and C_J for every index mask, factors in ascending index order."""
    crt = [creation(i, m) for i in range(1, m + 1)]
    ann = [annihilation(i, m) for i in range(1, m + 1)]
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


def number_operator(m):
    """The dense particle-number operator, diagonal in the occupation bitstrings."""
    return np.diag([float(n.bit_count()) for n in range(1 << m)]).astype(complex)


def pdms_from_rho_reference(rho):
    """gamma[k, l] = tr(rho c*_l c_k), Gamma[(i, j), (k, l)] = tr(rho c*_l c*_k c_i c_j)."""
    rho = np.asarray(rho, dtype=complex)
    m = rho.shape[0].bit_length() - 1
    crt = [creation(i, m) for i in range(1, m + 1)]
    ann = [annihilation(i, m) for i in range(1, m + 1)]
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
    """kernel._moment_rows as a loop: row r holds the pair traces of the r-th monomial."""
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
    ex = exchange_matrix(m)
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


def exchange_matrix(m):
    """Swap operator on the pair space: Ex[(i,j),(k,l)] = delta_il delta_jk."""
    ex = np.zeros((m * m, m * m))
    for i in range(m):
        for j in range(m):
            ex[i * m + j, j * m + i] = 1.0
    return ex


def t2a_value(gamma, Gamma, T):
    """Specialized T2 value for pair-antisymmetric tensors with no linear part.

    The trace terms use the reindexed slices [Ttilde_k]_{ij} = [T_j]_{ik};
    the pair-space form keeps the original slices [T_q]_{ij} = T[i, j, q],
    which is the reading consistent with the generalized value (the
    rearranged statement with Ttilde in all three terms is not).
    """
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    T = np.asarray(T, dtype=complex)
    Tt = T.transpose(0, 2, 1)  # Ttilde[i, j, k] = T[i, k, j]
    g4 = Gamma.reshape(m, m, m, m)
    total = 0j
    for q in range(m):
        v = T[:, :, q].reshape(-1)
        total += np.vdot(v, Gamma @ v)
        tq = Tt[:, :, q]
        # tr{(Ttilde_q^* (x) Ttilde_q) Gamma} with the adjoint on the first leg
        total += 4 * np.einsum("ki,jl,klij->", tq.conj(), tq, g4)
        total += 2 * np.trace(tq.conj().T @ tq @ gamma)
    return float(total.real)


# ---------------------------------------------------------------------------
# the hand-derived closed forms: probe tensors and einsum-style terms

def _pair_stacks(m):
    """The m * m unit matrices U[k*m + l] = e_k e_l^T, one per pair probe of P, Q and G."""
    return {"U": np.eye(m * m, dtype=complex).reshape(-1, m, m)}


def _t1_indices(m):
    """The index arrays (i, j, k) of the T1 probes, the triples i < j < k in order."""
    return tuple(np.array(list(combinations(range(m), 3)), dtype=np.intp).reshape(-1, 3).T)


def _t1_stacks(m):
    """The unit tensors E of the T1 probes: +-1/6 at the six signed orders of each triple."""
    ijk = _t1_indices(m)
    E = np.zeros((len(ijk[0]), m, m, m), dtype=complex)
    for order, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                        ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)):
        E[(np.arange(len(E)), *(ijk[p] for p in order))] = sign / 6
    return {"E": E}


def _t2_stacks(m):
    """The T2 probe tensors: T = (e_i e_j - e_j e_i) e_k / 2 for the cubic probes, a = e_i for the linear."""
    i, j = np.repeat(np.triu_indices(m, 1), m, axis=1)
    cubic = np.arange(len(i))
    T = np.zeros((len(i) + m, m, m, m), dtype=complex)
    T[cubic, i, j, cubic % m], T[cubic, j, i, cubic % m] = 0.5, -0.5
    a = np.zeros((len(T), m), dtype=complex)
    a[len(i):] = np.eye(m)
    return {"T": T, "a": a}


# Each hand form is F[x, y] = sum over its terms (x stack, y stack, spec,
# scale) of scale * sum conj(X[x, ...]) Y[y, ...] v[...], the spec read as
# in `closed._term_entries`.  P is Gamma, Q Gamma + (1 - Ex)(1 - gamma x 1 -
# 1 x gamma), G delta_km gamma[n, l] - Gamma[(k, n), (m, l)] before
# centring; T1 is the sum over q of 3 (2 E_q^* E_q - 6 E_q^* E_q gamma +
# 3 E_q^* Gamma E_q), and T2 is, term by term, sum_q T_q^* Gamma T_q, a
# Gamma trace, the gamma terms of T^* T, T^* a and a^* T, and a^* a, on
# probes antisymmetric in their first pair.
_P_TERMS = (("U", "U", "ij,kl,ijkl", 1),)
HAND_FORMS = {
    "P": (_pair_stacks, _P_TERMS),
    "Q": (_pair_stacks, _P_TERMS + (
        ("U", "U", "ij,ij,", 1), ("U", "U", "ij,ji,", -1), ("U", "U", "ij,kj,ik", -1),
        ("U", "U", "ij,il,jl", -1), ("U", "U", "ij,ki,jk", 1), ("U", "U", "ij,jl,il", 1))),
    "G": (_pair_stacks, (("U", "U", "kl,kn,nl", 1), ("U", "U", "kl,mn,knml", -1))),
    "T1": (_t1_stacks, (("E", "E", "iqk,iqk,", 6), ("E", "E", "iqk,iqp,pk", -18),
                        ("E", "E", "jql,iqk,ikjl", 9))),
    "T2": (_t2_stacks, (("T", "T", "ijq,klq,ijkl", 1), ("T", "T", "jqk,qab,bjka", 4),
                        ("T", "T", "jqk,jqp,pk", 2), ("T", "a", "qji,q,ji", 2),
                        ("a", "T", "q,qij,ji", 2), ("a", "a", "q,q,", 1))),
}


def hand_index_form(condition, m, source):
    """A table condition's hand form at m on a pair's `closed._source`, finished as `_index_form`.

    The nonzeros of the hand stacks go through the same `closed._term_entries`
    as the derived terms.
    """
    stacks, terms = HAND_FORMS[condition]
    nonzeros = {}
    for name, stack in stacks(m).items():
        nz = np.nonzero(stack)
        nonzeros[name] = (nz[0], nz[1:], stack[nz])
        n = len(stack)
    entries = [_term_entries(nonzeros[x], nonzeros[y], spec, scale, n, m) for x, y, spec, scale in terms]
    rows, src, coeff = (np.concatenate(part) for part in zip(*entries))
    F = _coo_apply(rows, src, coeff, source, n * n).reshape(n, n)
    F = (F + F.conj().T) / 2
    if CONDITIONS[condition].centred:
        g = source[m ** 4:-1]
        F -= np.outer(g, g.conj())
        F = (F + F.conj().T) / 2
    return F


# ---------------------------------------------------------------------------
# the per-tensor values of the third-order conditions, at the hand stacks' coordinates

ANTISYMMETRY_TOL = 1e-10  # rel, check_T1's probe tensor


def _form_value(condition, m, source, c):
    """Re(c* F c) for F a table condition's closed form, summed straight off its index map.

    The uncentred forms only: F before Hermitisation gives the same real part.
    """
    (rows, src, coeff), n = _index_map(condition, m)
    return float(np.sum(c[rows // n].conj() * coeff * source[src] * c[rows % n]).real)


def _require_probe_array(x, shape, name):
    """`x` as a finite complex array of the given shape."""
    x = np.asarray(x, dtype=complex)
    if x.shape != shape:
        raise ValueError(f"{name} shape {x.shape} does not match {shape}")
    _require_finite(x, name)
    return x


def _require_totally_antisymmetric(T):
    dev = np.max(np.abs([T + T.transpose(1, 0, 2), T + T.transpose(0, 2, 1)]))
    if not dev / _scale(T) <= ANTISYMMETRY_TOL:
        raise ValueError("tensor is not totally antisymmetric")


def check_T1(gamma, Gamma, T):
    """Closed-form scalar of the first third-order condition for one probe tensor.

    Re(c* F c) / 3 for F the T1 form and c_ijk = 6 T[i, j, k], i < j < k,
    the coordinates of the totally antisymmetric T on the unit tensors.
    """
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    T = _require_probe_array(T, (m, m, m), "T")
    _require_totally_antisymmetric(T)
    return _form_value("T1", m, _source(gamma, Gamma), 6 * T[_t1_indices(m)]) / 3


def check_T2_generalized(gamma, Gamma, T, a):
    """Closed-form scalar of the generalized second third-order condition.

    Re(c* F c) for F the T2 form and c the coordinates of (T, a) on its
    probes: T[i, j, k] - T[j, i, k] for i < j, then a.  So the value reads
    only T's part antisymmetric in its first pair of indices.
    """
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    T = _require_probe_array(T, (m, m, m), "T")
    a = _require_probe_array(a, (m,), "a")
    c = np.concatenate(((T - T.transpose(1, 0, 2))[np.triu_indices(m, 1)].ravel(), a))
    return _form_value("T2", m, _source(gamma, Gamma), c)


def _antisym_first_pair(T):
    """Antisymmetric part of every slice T[:, :, k] in its first two indices."""
    return (T - T.transpose(1, 0, 2)) / 2


def t1_bilinear(Tp, T, gamma, Gamma):
    """Sesquilinear extension of the T1 value, antilinear in the first tensor."""
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    total = 0j
    for q in range(m):
        tpq = Tp[:, q, :]
        tq = T[:, q, :]
        prod = tpq.conj().T @ tq
        total += 2 * np.trace(prod) - 6 * np.trace(prod @ gamma)
        total += 3 * (tq.reshape(-1) @ (Gamma @ tpq.conj().reshape(-1)))
    return complex(total)


def t2_bilinear(Tp, ap, T, a, gamma, Gamma):
    """Sesquilinear extension of the generalized T2 value, antilinear in (Tp, ap).

    The generalized two-body third-order condition stores a three-index
    tensor T with slices [T_k]_{ij} = T[i, j, k].  The mixed linear term
    uses the index order sum_q [T_j^(A)]_{q i} conj(a_q) in the second
    summand; the alternative order [T_j^(A)]_{i q} flips that term's sign and
    fails the cross-validation against the star-product form, which is how
    the order was fixed.
    """
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    g4 = Gamma.reshape(m, m, m, m)
    TpA = _antisym_first_pair(Tp)
    TA = _antisym_first_pair(T)
    total = 0j
    for q in range(m):
        total += np.vdot(Tp[:, :, q].reshape(-1), Gamma @ T[:, :, q].reshape(-1))
    tr_q1 = np.einsum("jqk,qmn,njkm->", TpA.conj(), TA, g4)
    q2 = np.einsum("qpi,qpj->ij", TpA.conj(), T)
    q3 = np.einsum("qji,q->ij", TpA.conj(), a) + np.einsum("qij,q->ij", TA, np.conj(ap))
    total += 4 * tr_q1
    total += 2 * np.einsum("ij,ji->", q2 + q3, gamma)
    total += np.vdot(ap, a)
    return complex(total)


def _two_point(lambdas, a, b):
    """Eigenbasis two-point value of generator a star generator b."""
    (i, bar_a), (j, bar_b) = a, b
    if bar_a == bar_b or i != j:
        return 0.0
    lam = float(lambdas[i - 1])
    return lam if bar_a else 1.0 - lam


def wick_expectation(spec, word):
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

    def pair_sum(items):
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


def quasifree_from_lambdas(lambdas, m):
    """Diagonal quasifree density with the given mode occupations."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (m,):
        raise ValueError(f"expected {m} occupations, got shape {lam.shape}")
    return quasifree.build_quasifree(np.diag(lam).astype(complex))
