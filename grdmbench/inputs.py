"""Seeded benchmark inputs, built with numpy alone.

Nothing here imports grdm: the inputs and the reference values the judge
compares against come from an independent Jordan-Wigner construction, so a
defect in grdm cannot make its own inputs or answers agree with it.

Conventions follow the grdm file formats: Fock basis index n has bit i-1 set
when mode i is occupied, gamma[k, l] = tr(rho c*_{l+1} c_{k+1}) and
Gamma[(i, j), (k, l)] = tr(rho c*_{l+1} c*_{k+1} c_{i+1} c_{j+1}) with the
row-major pair flattening (k, l) -> k*m + l.
"""

from __future__ import annotations

import functools
import json

import numpy as np

CHECK_M = 5
QUASIFREE_M = 4
POOL_SIZE = 8
# every SHIFT_EVERY-th check pair has its two-body matrix shifted by -P_SHIFT * I,
# which makes the P condition fail by that margin and leaves gamma untouched
SHIFT_EVERY = 4
P_SHIFT = 0.05


@functools.lru_cache(maxsize=None)
def ladders(m: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Creation and annihilation matrices of modes 1..m with Jordan-Wigner strings."""
    dim = 1 << m
    ann = []
    for i in range(m):
        bit = 1 << i
        mat = np.zeros((dim, dim), dtype=complex)
        for n in range(dim):
            if n & bit:
                mat[n ^ bit, n] = -1.0 if bin(n & (bit - 1)).count("1") & 1 else 1.0
        ann.append(mat)
    return tuple(a.conj().T for a in ann), tuple(ann)


def random_density(m: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank density B*B / tr(B*B) with B complex Gaussian."""
    dim = 1 << m
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = b.conj().T @ b
    return rho / np.trace(rho).real


def pdms(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One- and two-body matrices of a Fock-space density by direct traces."""
    m = rho.shape[0].bit_length() - 1
    crt, ann = ladders(m)
    gamma = np.array([[np.trace(rho @ crt[l] @ ann[k]) for l in range(m)] for k in range(m)])
    Gamma = np.empty((m * m, m * m), dtype=complex)
    for i in range(m):
        for j in range(m):
            aa = ann[i] @ ann[j]
            for k in range(m):
                for l in range(m):
                    Gamma[i * m + j, k * m + l] = np.trace(rho @ crt[l] @ crt[k] @ aa)
    return gamma, Gamma


def matrix_dict(mat: np.ndarray, kind: str, m: int) -> dict:
    mat = np.asarray(mat, dtype=complex)
    return {"kind": kind, "m": m, "dim": mat.shape[0],
            "re": mat.real.tolist(), "im": mat.imag.tolist()}


def check_pool(seed: int) -> list[dict]:
    """m=5 (gamma, Gamma) pairs of random Fock densities; every SHIFT_EVERY-th is P-shifted."""
    rng = np.random.default_rng([seed, CHECK_M, 1])
    out = []
    for k in range(POOL_SIZE):
        gamma, Gamma = pdms(random_density(CHECK_M, rng))
        # the exact pdms are Hermitian; symmetrize away the roundoff of the traces
        gamma = (gamma + gamma.conj().T) / 2
        Gamma = (Gamma + Gamma.conj().T) / 2
        if is_shifted(k):
            Gamma = Gamma - P_SHIFT * np.eye(CHECK_M * CHECK_M)
        out.append({"gamma": matrix_dict(gamma, "gamma", CHECK_M),
                    "Gamma": matrix_dict(Gamma, "Gamma", CHECK_M)})
    return out


def is_shifted(k: int) -> bool:
    """Whether pool pair k has its two-body matrix shifted to violate P."""
    return k % SHIFT_EVERY == SHIFT_EVERY - 1


def random_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def quasifree_pool(seed: int) -> list[dict]:
    """m=4 one-body matrices U diag(lambda) U* with every eigenvalue inside (0, 1)."""
    rng = np.random.default_rng([seed, QUASIFREE_M, 2])
    out = []
    for _ in range(POOL_SIZE):
        lam = rng.uniform(0.05, 0.95, QUASIFREE_M)
        u = random_unitary(QUASIFREE_M, rng)
        gamma = (u * lam) @ u.conj().T
        out.append({"gamma": matrix_dict((gamma + gamma.conj().T) / 2, "gamma", QUASIFREE_M)})
    return out


def fuzz_seed(seed: int, op: int) -> int:
    """Campaign seed of the op-th fuzz op, a fresh one for every op."""
    return int(np.random.SeedSequence([seed, op, 3]).generate_state(1)[0])


def dumps(obj) -> str:
    """Deterministic JSON text; floats are written with their shortest round-trip repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
