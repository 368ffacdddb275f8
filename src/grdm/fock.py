"""Fock-space oracle: ladder operators, the operator/element correspondence,
and reduced density matrices by direct traces.

Basis convention: basis state index n encodes occupations, bit i-1 of n being
the occupation of mode i (1-based), so index 0 is the vacuum.  Ladder
operators carry Jordan-Wigner sign strings over the lower bits, which
realizes the anticommutation relations with exact integer entries.

The oracle works on occupation bitstrings, not on matrix products: a ladder
word maps each basis state to at most one basis state with a sign, so
`_jordan_wigner` applies a word to all states at once from bit parities, and
to_operator and pdms_from_rho are signed gathers over those (target, sign)
pairs, precomputed per m and applied with np.bincount.  from_operator is the
closed-form inverse of to_operator, a signed Moebius inversion over subsets
of modes whose signs come from the algebra module's kernels, so the round
trip compares two separate sign derivations.  Everything serves to
cross-validate the Grassmann-side computations, up to m = FOCK_CAP = 8 in
both directions; the dense 2^m x 2^m ladder matrices remain only behind
creation, annihilation and slater_state.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import (FOCK_CAP, FOCK_DENSITY_TOL, OPERATOR_PRUNE_REL_TOL, SECTOR_TOL,
                      SLATER_NORM_TOL, GrassmannElement, _check_m, _coo_apply, _merge_parity,
                      _parity, _read_only, _require_finite, _require_hermitian, _require_unitary,
                      prune)


def _infer_m(mat: np.ndarray) -> int:
    """The mode count m of a 2^m x 2^m matrix, checked against FOCK_CAP."""
    dim = mat.shape[0]
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    m = dim.bit_length() - 1
    if 1 << m != dim:
        raise ValueError(f"matrix dimension {dim} is not a power of two")
    _check_m(m, FOCK_CAP)
    return m


@functools.lru_cache(maxsize=None)
def _ladders(m: int):
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


def creation(i: int, m: int) -> np.ndarray:
    """Creation operator for mode i (1-based) on the 2^m Fock space."""
    _check_m(m, FOCK_CAP)
    if not 1 <= i <= m:
        raise ValueError(f"mode index {i} outside [1, {m}]")
    return _ladders(m)[0][i - 1]


def annihilation(i: int, m: int) -> np.ndarray:
    """Annihilation operator for mode i (1-based); kills the vacuum state."""
    _check_m(m, FOCK_CAP)
    if not 1 <= i <= m:
        raise ValueError(f"mode index {i} outside [1, {m}]")
    return _ladders(m)[1][i - 1]


def number_operator(m: int) -> np.ndarray:
    dim = 1 << m
    return np.diag([float(n.bit_count()) for n in range(dim)]).astype(complex)


def _jordan_wigner(bar, unbar, states, m: int):
    """Apply the ladder word C*_bar C_unbar to occupation bitstrings, all at once.

    C*_bar and C_unbar are the creators and the annihilators of the masks'
    modes in ascending index order.  Every state must survive the word:
    unbar inside the state, bar outside what the annihilators leave.  The
    arguments broadcast against each other; returns the target states and
    the signs, +1 or -1.  A ladder operator on mode b counts the occupied
    modes below b, so the annihilators, applied highest first, see the
    occupations of the state and the creators those of the state minus
    unbar; only the m modes are looped over.
    """
    states = np.asarray(states)
    mid = states ^ unbar
    parity = below = below_mid = 0  # parities of the occupations below mode b
    for b in range(m):
        parity ^= ((unbar >> b) & below) ^ ((bar >> b) & below_mid)
        below ^= (states >> b) & 1
        below_mid ^= (mid >> b) & 1
    return mid | bar, 1 - 2 * parity


@functools.lru_cache(maxsize=FOCK_CAP)
def _operator_map(m: int):
    """Read-only (dst, src, sign) arrays with op.ravel()[dst] += sign * coeffs[src].

    Monomial (I, J) sends state n to +-|n'> when J lies inside n and I
    outside n - J, so per mode (in I, in J, occupied in n) takes one of five
    patterns: 5^m entries in all, one per (I, J, n).  `coeffs` is the
    element's to_vector(); the entries run in its order, so every operator
    entry sums its terms in ascending monomial order.
    """
    bar = unbar = states = np.zeros(1, dtype=np.intp)
    patterns = np.array([(0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 1), (1, 1, 1)], dtype=np.intp)
    for b in range(m):
        bar, unbar, states = ((x[:, None] | (patterns[:, c] << b)).ravel()
                              for c, x in enumerate((bar, unbar, states)))
    src = (bar << m) | unbar
    order = np.argsort(src, kind="stable")
    bar, unbar, states, src = bar[order], unbar[order], states[order], src[order]
    targets, sign = _jordan_wigner(bar, unbar, states, m)
    return _read_only((targets << m) | states, src, sign.astype(float))


def to_operator(a: GrassmannElement) -> np.ndarray:
    """Map an element to its Fock operator: sum of coeff * C*_I C_J per monomial."""
    m = a.m
    _check_m(m, FOCK_CAP)
    dim = 1 << m
    return _coo_apply(*_operator_map(m), a.to_vector(), dim * dim).reshape(dim, dim)


@functools.lru_cache(maxsize=FOCK_CAP)
def _element_map(m: int):
    """Read-only (dst, src, sign) arrays with coeffs[dst] += sign * op.ravel()[src].

    The matrix unit |x><y| is C*_x prod_k (1 - n_k) (C*_y)^dagger with
    n_k = pbar_k p_k, so it feeds the monomial (x | Z, y | Z) for every Z
    disjoint from x | y: per mode (in x, in y, in Z) takes one of five
    patterns, 5^m entries in all.  The entries run by src, then by Z
    descending, and carry the signs of `from_operator`'s sum.
    """
    # masks of at most FOCK_CAP = 8 modes; one byte each keeps the m = 8 temporaries small
    x = y = z = np.zeros(1, dtype=np.uint8)
    patterns = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], dtype=np.uint8)
    for b in range(m):
        x, y, z = ((v[:, None] | (patterns[:, c] << b)).ravel() for c, v in enumerate((x, y, z)))
    src = (x.astype(np.intp) << m) | y
    order = np.argsort((src << m) | (((1 << m) - 1) & ~z), kind="stable")
    x, y, z, src = x[order], y[order], z[order], src[order]
    # |Z| + |Z|(|Z|-1)/2 + |y|(|y|-1)/2, the last two merges of a block with
    # itself, and the merges of x with Z and of Z with y
    parity = _parity(z, m) ^ _merge_parity([(z, z), (y, y), (x, z), (z, y)], m)
    return _read_only(((x | z).astype(np.intp) << m) | y | z, src, np.where(parity, -1.0, 1.0))


def from_operator(op: np.ndarray) -> GrassmannElement:
    """Expand a Fock operator over the normal-ordered basis and map it to an element.

    The coefficient of pbar_I p_J is, with h(n) = (-1)^(n(n-1)/2) and
    merge(A, B) the sign that sorts the concatenation of A and B,

        c_IJ = sum over Z within I & J of (-1)^|Z| h(|Z|) h(|J - Z|)
               * merge(I - Z, Z) * merge(Z, J - Z) * op[I - Z, J - Z],

    the Moebius inversion of to_operator on the subset lattice.  Exact up to
    the roundoff of those sums, so `prune` drops the coefficients at or
    below OPERATOR_PRUNE_REL_TOL of the largest magnitude.  A NaN or
    infinite entry of `op` raises.
    """
    op = np.asarray(op, dtype=complex)
    m = _infer_m(op)
    if not np.isfinite(op).all():
        i, j = np.argwhere(~np.isfinite(op))[0].tolist()
        raise ValueError(f"operator entry [{i}, {j}] is non-finite: {complex(op[i, j])}")
    coeffs = _coo_apply(*_element_map(m), op.ravel(), 1 << (2 * m))
    dense = GrassmannElement._from_arrays(m, np.arange(coeffs.size), coeffs)  # zeros included
    return prune(dense, OPERATOR_PRUNE_REL_TOL)


def validate_density(rho: np.ndarray, tol: float = FOCK_DENSITY_TOL) -> None:
    """A Fock density: Hermitian, unit trace and no eigenvalue below 0, each within tol."""
    _infer_m(np.asarray(rho))
    rho = _require_hermitian(rho, "density", tol)
    tr = np.trace(rho)
    if not abs(tr - 1.0) <= tol:
        raise ValueError(f"density trace {tr} differs from 1")
    low = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if not low >= -tol:
        raise ValueError(f"density has negative eigenvalue {low:.3e}")


def _trace_map(rows: np.ndarray, bar: np.ndarray, unbar: np.ndarray, order: np.ndarray,
               m: int):
    """(dst, src, sign) with out[rows[w]] = order[w] * tr(rho C*_bar[w] C_unbar[w]).

    tr(rho W) = sum over the states n that W sends to s_n |n'> of
    s_n * rho[n, n'], read from rho.ravel() at n * 2^m + n'.
    """
    states = np.arange(1 << m)
    bar, unbar = bar[:, None], unbar[:, None]
    word, n = np.nonzero(((states & unbar) == unbar) & ((states & ~unbar & bar) == 0))
    targets, sign = _jordan_wigner(bar[word, 0], unbar[word, 0], n, m)
    return _read_only(rows[word], (n << m) | targets, (sign * order[word]).astype(float))


@functools.lru_cache(maxsize=FOCK_CAP)
def _pdm_maps(m: int):
    """The gathers of gamma (words c*_l c_k) and Gamma (words c*_l c*_k c_i c_j) from rho.

    A two-body word puts its creators and its annihilators in ascending
    order at a sign -1 per swapped pair; the words with i = j or k = l vanish.
    """
    modes = np.arange(m)
    k, l = (x.ravel() for x in np.meshgrid(modes, modes, indexing="ij"))
    gamma = _trace_map(k * m + l, 1 << l, 1 << k, np.ones_like(k), m)
    i, j, k, l = (x.ravel() for x in np.meshgrid(modes, modes, modes, modes, indexing="ij"))
    keep = (i != j) & (k != l)
    i, j, k, l = i[keep], j[keep], k[keep], l[keep]
    Gamma = _trace_map((i * m + j) * m * m + k * m + l, (1 << k) | (1 << l),
                       (1 << i) | (1 << j), np.where((l > k) ^ (i > j), -1, 1), m)
    return gamma, Gamma


def pdms_from_rho(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One- and two-particle density matrices of a Fock-space density by direct traces.

    gamma[k, l] = tr(rho c*_{l+1} c_{k+1}); the two-body matrix uses the
    row-major pair flattening (k, l) -> k*m + l, with
    Gamma[(i, j), (k, l)] = tr(rho c*_{l+1} c*_{k+1} c_{i+1} c_{j+1}).
    Each is one signed gather of the entries of rho, cached per m.
    """
    rho = np.asarray(rho, dtype=complex)
    m = _infer_m(rho)
    flat = rho.ravel()
    gamma_map, Gamma_map = _pdm_maps(m)
    gamma = _coo_apply(*gamma_map, flat, m * m).reshape(m, m)
    Gamma = _coo_apply(*Gamma_map, flat, m ** 4).reshape(m * m, m * m)
    return gamma, Gamma


def exchange_matrix(m: int) -> np.ndarray:
    """Swap operator on the pair space: Ex[(i,j),(k,l)] = delta_il delta_jk."""
    ex = np.zeros((m * m, m * m))
    for i in range(m):
        for j in range(m):
            ex[i * m + j, j * m + i] = 1.0
    return ex


def sector_projector(m: int, n_particles: int) -> np.ndarray:
    """Projector onto the n-particle occupation sector."""
    _check_m(m, FOCK_CAP)
    if not 0 <= n_particles <= m:
        raise ValueError(f"particle sector {n_particles} is empty for {m} modes")
    dim = 1 << m
    diag = [1.0 if n.bit_count() == n_particles else 0.0 for n in range(dim)]
    return np.diag(diag).astype(complex)


def random_density(m: int, seed: int, sector: int | None = None) -> np.ndarray:
    """Seeded random density rho = B*B / tr(B*B), B complex Gaussian.

    With `sector` set, B*B is compressed onto the fixed particle-number sector
    before normalizing, so the result is supported there exactly.
    """
    _check_m(m, FOCK_CAP)
    rng = np.random.default_rng(seed)
    dim = 1 << m
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = b.conj().T @ b
    if sector is not None:
        proj = sector_projector(m, sector)
        rho = proj @ rho @ proj
    tr = np.trace(rho).real
    if tr <= 0:
        raise ValueError("projected density has zero trace")
    return rho / tr


def slater_state(orbitals: np.ndarray, m: int) -> np.ndarray:
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


def infer_particle_sector(rho: np.ndarray) -> int:
    """Particle number of a density supported on a single occupation sector."""
    rho = np.asarray(rho)
    m = _infer_m(rho)
    _require_finite(rho, "density")
    nop = number_operator(m)
    n = round(np.trace(rho @ nop).real)
    if not np.max(np.abs(nop @ rho - n * rho)) <= SECTOR_TOL:
        raise ValueError("density is not supported on a single particle-number sector")
    return n


def contraction_check(rho: np.ndarray, onb: np.ndarray | None = None) -> float:
    """Max deviation between gamma and the partial contraction of Gamma / (N-1).

    Requires a density supported on one N-particle sector with N >= 2; `onb`
    optionally supplies the orthonormal basis (columns) used for the
    contraction sum, defaulting to the standard basis.
    """
    rho = np.asarray(rho, dtype=complex)
    m = _infer_m(rho)
    n = infer_particle_sector(rho)
    if n < 2:
        raise ValueError(f"contraction identity needs N >= 2, got N = {n}")
    gamma, Gamma = pdms_from_rho(rho)
    g4 = Gamma.reshape(m, m, m, m)
    if onb is None:
        contracted = np.einsum("iajb->ij", np.einsum("iajb,ab->iajb", g4, np.eye(m)))
    else:
        onb = _require_unitary(onb, m, "onb")
        weights = np.einsum("ak,bk->ab", onb.conj(), onb)
        contracted = np.einsum("iajb,ab->ij", g4, weights)
    return float(np.max(np.abs(gamma - contracted / (n - 1))))
