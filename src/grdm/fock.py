"""Dense Fock-space oracle: ladder operators, the operator/element correspondence,
and reduced density matrices by direct traces.

Basis convention: basis state index n encodes occupations, bit i-1 of n being
the occupation of mode i (1-based), so index 0 is the vacuum.  Ladder matrices
carry Jordan-Wigner sign strings over the lower bits, which realizes the
anticommutation relations with exact integer entries.

Everything here is brute force on 2^m x 2^m matrices and exists to
cross-validate the Grassmann-side computations at small mode counts, m <= 6
in both directions.  to_operator multiplies ladder matrices; from_operator is
its closed-form inverse, a signed Moebius inversion over subsets of modes
applied as one precomputed sparse map of 5^m entries, cached per m.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import GrassmannElement, Monomial, _half_pair_sign, _merge_sign, prune

FOCK_CAP = 6


def _check_mode_count(m: int) -> None:
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"mode count must be a positive integer, got {m!r}")
    if m > FOCK_CAP:
        raise ValueError(f"mode count {m} exceeds oracle cap {FOCK_CAP}")


def _infer_m(mat: np.ndarray) -> int:
    dim = mat.shape[0]
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    m = dim.bit_length() - 1
    if 1 << m != dim:
        raise ValueError(f"matrix dimension {dim} is not a power of two")
    return m


@functools.lru_cache(maxsize=None)
def _ladders(m: int):
    _check_mode_count(m)
    dim = 1 << m
    ann = []
    for i in range(m):
        bit = 1 << i
        mat = np.zeros((dim, dim), dtype=complex)
        for n in range(dim):
            if n & bit:
                sign = -1.0 if (n & (bit - 1)).bit_count() & 1 else 1.0
                mat[n ^ bit, n] = sign
        mat.setflags(write=False)
        ann.append(mat)
    crt = []
    for a in ann:
        c = a.conj().T.copy()
        c.setflags(write=False)
        crt.append(c)
    return tuple(crt), tuple(ann)


def creation(i: int, m: int) -> np.ndarray:
    """Creation operator for mode i (1-based) on the 2^m Fock space."""
    _check_mode_count(m)
    if not 1 <= i <= m:
        raise ValueError(f"mode index {i} outside [1, {m}]")
    return _ladders(m)[0][i - 1]


def annihilation(i: int, m: int) -> np.ndarray:
    """Annihilation operator for mode i (1-based); kills the vacuum state."""
    _check_mode_count(m)
    if not 1 <= i <= m:
        raise ValueError(f"mode index {i} outside [1, {m}]")
    return _ladders(m)[1][i - 1]


def number_operator(m: int) -> np.ndarray:
    dim = 1 << m
    return np.diag([float(n.bit_count()) for n in range(dim)]).astype(complex)


@functools.lru_cache(maxsize=None)
def _ordered_products(m: int):
    """C*_I and C_J for every index mask, factors in ascending index order."""
    crt, ann = _ladders(m)
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


def to_operator(a: GrassmannElement) -> np.ndarray:
    """Map an element to its Fock operator: sum of coeff * C*_I C_J per monomial."""
    m = a.m
    _check_mode_count(m)
    cs_prod, an_prod = _ordered_products(m)
    dim = 1 << m
    out = np.zeros((dim, dim), dtype=complex)
    for (bar, ub), c in a.terms.items():
        out += c * (cs_prod[bar] @ an_prod[ub])
    return out


@functools.lru_cache(maxsize=FOCK_CAP)
def _element_map(m: int):
    """Read-only (dst, src, sign) arrays with coeffs[dst] += sign * op.ravel()[src].

    The matrix unit |x><y| is C*_x prod_k (1 - n_k) (C*_y)^dagger with
    n_k = pbar_k p_k, so it feeds the monomial (x | Z, y | Z) for every Z
    disjoint from x | y: 2^(m - |x | y|) entries per (x, y), 5^m in all.
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
    out = (np.array(dst, dtype=np.intp), np.array(src, dtype=np.intp),
           np.array(sign, dtype=float))
    for arr in out:
        arr.setflags(write=False)
    return out


def from_operator(op: np.ndarray) -> GrassmannElement:
    """Expand a Fock operator over the normal-ordered basis and map it to an element.

    The coefficient of pbar_I p_J is, with h(n) = (-1)^(n(n-1)/2) and
    merge(A, B) the sign that sorts the concatenation of A and B,

        c_IJ = sum over Z within I & J of (-1)^|Z| h(|Z|) h(|J - Z|)
               * merge(I - Z, Z) * merge(Z, J - Z) * op[I - Z, J - Z],

    the Moebius inversion of to_operator on the subset lattice.  Exact up to
    the roundoff of those sums; pruned at 1e-13 relative.
    """
    op = np.asarray(op, dtype=complex)
    m = _infer_m(op)
    _check_mode_count(m)
    dst, src, sign = _element_map(m)
    vals = op.ravel()[src] * sign
    nb = 1 << (2 * m)
    coeffs = np.bincount(dst, vals.real, nb) + 1j * np.bincount(dst, vals.imag, nb)
    idx = np.flatnonzero(coeffs)
    mask = (1 << m) - 1
    terms = {Monomial(k >> m, k & mask): c
             for k, c in zip(idx.tolist(), coeffs[idx].tolist())}
    return prune(GrassmannElement(m, terms), 1e-13)


def validate_density(rho: np.ndarray, tol: float = 1e-10) -> None:
    rho = np.asarray(rho)
    m = _infer_m(rho)
    _check_mode_count(m)
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > tol:
        raise ValueError(f"density is not Hermitian: max deviation {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > tol:
        raise ValueError(f"density trace {tr} differs from 1")
    low = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if low < -tol:
        raise ValueError(f"density has negative eigenvalue {low:.3e}")


def pdms_from_rho(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One- and two-particle density matrices of a Fock-space density by direct traces.

    gamma[k, l] = tr(rho c*_{l+1} c_{k+1}); the two-body matrix uses the
    row-major pair flattening (k, l) -> k*m + l, with
    Gamma[(i, j), (k, l)] = tr(rho c*_{l+1} c*_{k+1} c_{i+1} c_{j+1}).
    """
    rho = np.asarray(rho, dtype=complex)
    m = _infer_m(rho)
    _check_mode_count(m)
    crt, ann = _ladders(m)
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


def exchange_matrix(m: int) -> np.ndarray:
    """Swap operator on the pair space: Ex[(i,j),(k,l)] = delta_il delta_jk."""
    ex = np.zeros((m * m, m * m))
    for i in range(m):
        for j in range(m):
            ex[i * m + j, j * m + i] = 1.0
    return ex


def sector_projector(m: int, n_particles: int) -> np.ndarray:
    """Projector onto the n-particle occupation sector."""
    _check_mode_count(m)
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
    _check_mode_count(m)
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
    if nrm < 1e-12:
        raise ValueError("orbitals are linearly dependent; Slater state vanishes")
    return vec / nrm


def infer_particle_sector(rho: np.ndarray, tol: float = 1e-8) -> int:
    """Particle number of a density supported on a single occupation sector."""
    rho = np.asarray(rho)
    m = _infer_m(rho)
    nop = number_operator(m)
    n_avg = np.trace(rho @ nop).real
    n = round(n_avg)
    if np.max(np.abs(nop @ rho - n * rho)) > tol:
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
        onb = np.asarray(onb, dtype=complex)
        if np.max(np.abs(onb.conj().T @ onb - np.eye(m))) > 1e-10:
            raise ValueError("onb columns are not orthonormal")
        weights = np.einsum("ak,bk->ab", onb.conj(), onb)
        contracted = np.einsum("iajb,ab->ij", g4, weights)
    return float(np.max(np.abs(gamma - contracted / (n - 1))))
