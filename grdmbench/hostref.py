"""Fixed host-speed reference kernel and the normalisation arithmetic.

The host this benchmark was built on switches between a fast and a slow
phase 1.5-1.9x apart, each lasting seconds, so raw wall-clock statistics of
a run do not repeat.  The ratio of an op's time to a fixed reference kernel
timed in the same process just before and just after it does.  Every
latency is therefore reported as wall time divided by the host-speed factor
(mean of the two reference times over REF_NOMINAL_MS), i.e. in milliseconds
of a host on which the reference takes REF_NOMINAL_MS.

The kernel mixes the two kinds of work the measured code does: pure-Python
sparse dict accumulation of complex coefficients keyed by bitmask pairs, and
many small numpy calls (einsum, matmul, eigvalsh).  Neither the kernel nor
the constant may be re-calibrated per run: a change to either changes every
reported latency.
"""

from __future__ import annotations

import time

import numpy as np

# reference time on a 2-vCPU x86-64 VM with Python 3.11 and numpy 2.4 in its usual
# (slow) phase; the same host's fast phase runs the kernel in about 7 ms
REF_NOMINAL_MS = 12.0

_RNG = np.random.default_rng(20130702)
_H = _RNG.standard_normal((24, 24)) + 1j * _RNG.standard_normal((24, 24))
_H = _H + _H.conj().T
_T = _RNG.standard_normal((5, 5, 5)) + 1j * _RNG.standard_normal((5, 5, 5))
_G = _RNG.standard_normal((25, 25)) + 1j * _RNG.standard_normal((25, 25))


def _sparse_part() -> complex:
    acc: dict = {}
    for a in range(64):
        ca = complex(a & 7, a >> 3)
        for b in range(0, 64, 2):
            if a & b:
                continue
            sign = -1 if (a >> 1 & b).bit_count() & 1 else 1
            key = (a | b, a ^ (b >> 1))
            acc[key] = acc.get(key, 0j) + sign * ca
    return sum(acc.values())


def _dense_part() -> complex:
    tot = 0j
    for q in range(5):
        tot += np.einsum("jqk,qmn->", _T.conj(), _T)
        tot += np.vdot(_G[q], _G @ _G[:, q])
    tot += float(np.linalg.eigvalsh(_H).min())
    return tot


def reference_kernel() -> complex:
    """The fixed work whose time defines host speed; returns a checksum."""
    tot = 0j
    for _ in range(16):
        tot += _sparse_part() + _dense_part()
    return tot


def time_reference() -> float:
    """Wall time of one reference kernel run, in ms."""
    t0 = time.perf_counter_ns()
    reference_kernel()
    return (time.perf_counter_ns() - t0) / 1e6


def speed_factor(ref_before_ms: float, ref_after_ms: float) -> float:
    """How much slower than nominal the host ran around one op (> 1 means slower)."""
    return (ref_before_ms + ref_after_ms) / 2.0 / REF_NOMINAL_MS


def normalise(wall_ms: float, factor: float) -> float:
    """Wall time converted to the nominal host speed."""
    return wall_ms / factor
