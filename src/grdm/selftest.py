"""The pinned identities of `grdm selftest`, each checked on two independent paths.

Trace anchors (closed form, the definition through the trace weight, and the
Fock oracle), the pair integral against the star product of monomials, the
CAR relations, cyclicity and positivity of the trace form, and the splicing
of generator star products into wedge products.  `run` is the body of
`grdm selftest`, and `cli` imports this module only for that command, so
the other commands never load the Fock oracle or `algebra` for it.
"""

from __future__ import annotations

import random
import time
from itertools import product

import numpy as np

from . import fock
from .algebra import (
    involution,
    multiply,
    pair_integral_closed_form,
    psi,
    psibar,
    raw_integral,
    star,
    star_monomials,
    star_trace,
    trace_integral,
    trace_weight,
    unit,
)
from .kernel import GrassmannElement, Monomial
from .limits import SELFTEST_EXACT_TOL, SELFTEST_RANDOM_TOL


def identities(rng: random.Random):
    """Yield (name, worst deviation, tolerance) for the pinned identities."""

    def random_element(m):
        terms = {}
        for _ in range(6):
            key = Monomial(rng.randrange(1 << m), rng.randrange(1 << m))
            terms[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return GrassmannElement(m, terms)

    # trace anchors: closed form vs definition path vs oracle, all diagonal monomials
    worst = 0.0
    for m in range(1, 5):
        weight = trace_weight(m)
        for mask in range(1 << m):
            el = GrassmannElement(m, {Monomial(mask, mask): 1 + 0j})
            k = mask.bit_count()
            want = (-1 if (k * (k - 1) // 2) & 1 else 1) * 2 ** (m - k)
            via_def = (-1) ** m * raw_integral(multiply(el, weight))
            oracle = np.trace(fock.to_operator(el))
            worst = max(worst, abs(trace_integral(el) - want),
                        abs(via_def - want), abs(oracle - want))
    yield "trace-anchor", worst, SELFTEST_EXACT_TOL

    worst = 0.0
    for m in (1, 2):
        for I, J, K, L in product(range(1 << m), repeat=4):
            a, b = Monomial(I, J), Monomial(K, L)
            worst = max(worst, abs(pair_integral_closed_form(a, b, m)
                                   - trace_integral(star_monomials(a, b, m))))
    for m in (3, 4):
        for _ in range(200):
            a = Monomial(rng.randrange(1 << m), rng.randrange(1 << m))
            b = Monomial(rng.randrange(1 << m), rng.randrange(1 << m))
            worst = max(worst, abs(pair_integral_closed_form(a, b, m)
                                   - trace_integral(star_monomials(a, b, m))))
    yield "pair-integral", worst, SELFTEST_EXACT_TOL

    worst = 0.0
    for m in range(1, 5):
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                zero_dev = (star(psi(i, m), psi(j, m)) + star(psi(j, m), psi(i, m))).norm_max()
                worst = max(worst, zero_dev)
                zero_dev = (star(psibar(i, m), psibar(j, m))
                            + star(psibar(j, m), psibar(i, m))).norm_max()
                worst = max(worst, zero_dev)
                anti = star(psibar(i, m), psi(j, m)) + star(psi(j, m), psibar(i, m))
                want = unit(m) if i == j else GrassmannElement(m, {})
                diff = anti - want
                worst = max(worst, diff.norm_max())
    yield "car", worst, SELFTEST_EXACT_TOL

    worst = 0.0
    for _ in range(50):
        a, b = random_element(3), random_element(3)
        worst = max(worst, abs(star_trace(a, b) - star_trace(b, a)))
    yield "cyclicity", worst, SELFTEST_RANDOM_TOL

    worst = 0.0
    for m in (1, 2, 3, 4):
        for _ in range(25):
            eta = random_element(m)
            val = star_trace(involution(eta), eta)
            scale = 1.0 + sum(abs(c) ** 2 for c in eta.terms.values()) * 2 ** m
            worst = max(worst, max(0.0, -val.real) / scale, abs(val.imag) / scale)
    yield "positivity", worst, SELFTEST_RANDOM_TOL

    worst = 0.0
    for _ in range(40):
        m = 4
        bars = rng.sample(range(1, m + 1), rng.randrange(0, m + 1))
        ubs = rng.sample(range(1, m + 1), rng.randrange(0, m + 1))
        gens = [psibar(i, m) for i in bars] + [psi(j, m) for j in ubs]
        if not gens:
            continue
        folded = gens[0]
        plain = gens[0]
        for g in gens[1:]:
            folded = star(folded, g)
            plain = multiply(plain, g)
        worst = max(worst, (folded - plain).norm_max())
    yield "splicing", worst, SELFTEST_EXACT_TOL


def run(args) -> int:
    """`grdm selftest`: every identity on a seeded generator, failures (all with --verbose) printed."""
    rng = random.Random(args.seed)
    start = time.time()
    failed = None
    for name, dev, tol in identities(rng):
        ok = dev <= tol
        if args.verbose or not ok:
            print(f"{'PASS' if ok else 'FAIL'} {name:<14} max deviation {dev:.3e} (tol {tol:.0e})")
        if not ok and failed is None:
            failed = name
    elapsed = time.time() - start
    if failed is not None:
        print(f"selftest FAILED at identity '{failed}' ({elapsed:.1f}s)")
        return 1
    print(f"selftest passed ({elapsed:.1f}s)")
    return 0
