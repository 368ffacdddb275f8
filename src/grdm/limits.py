"""Every tolerance and cap of the package, the input checks and the cached-map helpers.

A leaf module on numpy alone, so the closed-form side (`closed`) reads them
without compiling the Grassmann element kernel.  Every module reads these
names from here, and no other module defines a tolerance or a cap.
"""

from __future__ import annotations

import numpy as np

# Every tolerance and cap of the package, named once.  "rel" tolerances scale
# with 1 + max|X| of what they judge (`_scale`); the prunes' with the largest |c|.
ELEMENT_CAP = 10     # monomial-pair fast paths stay exact up to here
STAR_CAP = 6         # full-element star products; dense pairing cost grows as 16**m
FOCK_CAP = 8         # the Fock oracle and the fuzz campaign
QUASIFREE_CAP = 8    # quasifree build and verify
QUASIFREE_WORD_CAP = 1_000_000  # quasifree verify: generator words, 340-600 B each at the build's peak
PRUNE_REL_TOL = 1e-14           # rel to the largest magnitude: prune's default
OPERATOR_PRUNE_REL_TOL = 1e-13  # rel, fock.from_operator: roundoff of its signed subset sums
DENSITY_TRACE_TOL = 1e-8     # |trace - 1| of a density element: the pdms and the Grassmann forms
HERMITIAN_INPUT_TOL = 1e-8   # max |X - X*| of a gamma or Gamma input
FORM_HERMITIAN_TOL = 1e-10   # rel, max |F - F*|: forms not Hermitian by construction, report_from_form
PSD_REL_TOL = 1e-9           # rel, how far below 0 a passing margin may lie
BOUNDARY_TOL = 1e-10         # quasifree: eigenvalues this close to 0 or 1 are snapped
SELFTEST_EXACT_TOL = 1e-12   # grdm selftest: identities exact up to a few roundings
SELFTEST_RANDOM_TOL = 1e-10  # grdm selftest: identities on random coefficients


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


def _require_hermitian(mat, name: str) -> np.ndarray:
    """`mat` as a finite complex square matrix, max |mat - mat*| within HERMITIAN_INPUT_TOL."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    _require_finite(mat, name)
    dev = np.max(np.abs(mat - mat.conj().T))
    if not dev <= HERMITIAN_INPUT_TOL:
        raise ValueError(f"{name} is not Hermitian: max deviation {dev:.3e}")
    return mat


def _require_unit_trace(trace: complex) -> None:
    """A density element's trace_integral must be 1 within DENSITY_TRACE_TOL."""
    if not abs(trace - 1.0) <= DENSITY_TRACE_TOL:
        raise ValueError(f"density element is not normalized: trace_integral = {complex(trace)}")


# ---------------------------------------------------------------------------
# cached maps: read-only COO arrays

def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _index_dtype(largest: int) -> np.dtype:
    """The smallest dtype that holds every index from 0 to `largest`, for cached index arrays.

    Taken from the largest index itself, never from a cap, so raising a cap
    widens the dtype instead of letting the indices wrap.
    """
    return np.min_scalar_type(largest)


def _coo_apply(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, vec: np.ndarray,
               n: int) -> np.ndarray:
    """out[rows] += vals * vec[cols] over COO arrays, duplicates summed in array order."""
    prod = vals * vec[cols]
    return np.bincount(rows, prod.real, n) + 1j * np.bincount(rows, prod.imag, n)
