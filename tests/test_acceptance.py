"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.  Tolerances are pinned here and
nowhere else.
"""

import time
from contextlib import contextmanager
from itertools import combinations, product

import numpy as np

from grdm import conditions as cond
from grdm import fock, quasifree as qf
from grdm.algebra import (
    involution,
    pair_integral_closed_form,
    psi,
    psibar,
    star,
    star_trace,
    trace_integral,
    unit,
)
from grdm.closed import battery
from grdm.kernel import GrassmannElement, Monomial, _moments
from grdm.table import CONDITIONS
from _reference import (change_generators, check_T1, check_T2_generalized, exchange_matrix,
                        number_operator, probe_form, slater_state, star_monomials_reference,
                        word_probes)
from conftest import rand_element, random_unitary


@contextmanager
def criterion(number, description, budget_s=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number:2d} PASS: {description} ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def test_criterion_01_trace_formula_anchor():
    with criterion(1, "trace anchors exact for all diagonal monomials, m = 1..4", budget_s=5):
        for m in range(1, 5):
            for mask in range(1 << m):
                k = mask.bit_count()
                want = (-1) ** (k * (k - 1) // 2) * 2 ** (m - k)
                el = GrassmannElement(m, {Monomial(mask, mask): 1 + 0j})
                got = trace_integral(el)
                assert got == want, (m, mask, got, want)
                oracle = np.trace(fock.to_operator(el))
                assert oracle == want, (m, mask, oracle, want)


def test_criterion_02_pair_integral_anchor():
    with criterion(2, "pair-integral closed form == star+trace on all pairs, m <= 3", budget_s=30):
        for m in (1, 2, 3):
            for I, J, K, L in product(range(1 << m), repeat=4):
                a, b = Monomial(I, J), Monomial(K, L)
                closed = pair_integral_closed_form(a, b, m)
                direct = trace_integral(star_monomials_reference(a, b, m))
                assert abs(closed - direct) <= 1e-12, (m, a, b, closed, direct)


def test_criterion_03_theta_homomorphism():
    rng = np.random.default_rng(3003)
    with criterion(3, "operator products map to star products, 200 random pairs at m = 3"):
        m, dim = 3, 8
        for _ in range(200):
            A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            lhs = fock.from_operator(A @ B)
            rhs = star(fock.from_operator(A), fock.from_operator(B))
            assert (lhs - rhs).norm_max() <= 1e-10


def test_criterion_04_car_and_algebra_laws():
    rng = np.random.default_rng(3004)
    with criterion(4, "CAR exhaustive m <= 4; associativity and involution laws"):
        for m in range(1, 5):
            for i, j in product(range(1, m + 1), repeat=2):
                assert (star(psi(i, m), psi(j, m)) + star(psi(j, m), psi(i, m))).terms == {}
                assert (star(psibar(i, m), psibar(j, m))
                        + star(psibar(j, m), psibar(i, m))).terms == {}
                anti = star(psibar(i, m), psi(j, m)) + star(psi(j, m), psibar(i, m))
                want = unit(m) if i == j else GrassmannElement(m, {})
                assert (anti - want).norm_max() == 0.0
        for _ in range(100):
            m = int(rng.integers(2, 4))
            a, b, c = (rand_element(rng, m) for _ in range(3))
            lhs = star(star(a, b), c)
            rhs = star(a, star(b, c))
            scale = max(lhs.norm_max(), rhs.norm_max(), 1.0)
            assert (lhs - rhs).norm_max() <= 1e-12 * scale
            istar = involution(star(a, b))
            iswap = star(involution(b), involution(a))
            scale = max(istar.norm_max(), 1.0)
            assert (istar - iswap).norm_max() <= 1e-12 * scale
            back = involution(involution(a))
            assert (back - a).norm_max() <= 1e-12 * max(a.norm_max(), 1.0)


def test_criterion_05_positivity_theorem():
    rng = np.random.default_rng(3005)
    with criterion(5, "trace of eta* star eta nonnegative, 200 random eta at m = 2, 3, 4"):
        count = 0
        while count < 200:
            for m in (2, 3, 4):
                eta = rand_element(rng, m, nterms=8)
                val = star_trace(involution(eta), eta)
                scale = 1.0 + sum(abs(c) ** 2 for c in eta.terms.values()) * 2 ** m
                assert val.real >= -1e-10 * scale, (m, val)
                assert abs(val.imag) <= 1e-10 * scale
                count += 1


def test_criterion_06_pdm_agreement():
    with criterion(6, "grassmann pdms match oracle traces; particle-number identities"):
        seeds = iter(range(60001, 60400))
        for m, reps in ((2, 34), (3, 33), (4, 33)):
            nop = number_operator(m)
            for _ in range(reps):
                rho = fock.random_density(m, next(seeds))
                kappa = fock.from_operator(rho)
                gamma_o, Gamma_o = fock.pdms_from_rho(rho)
                assert np.max(np.abs(cond.pdm1_from_density(kappa) - gamma_o)) <= 1e-10
                assert np.max(np.abs(cond.pdm2_from_density(kappa) - Gamma_o)) <= 1e-10
                assert abs(np.trace(gamma_o) - np.trace(rho @ nop)) <= 1e-10
                assert abs(np.trace(Gamma_o) - np.trace(rho @ (nop @ nop - nop))) <= 1e-10
        # sector densities: contraction identity
        for m, sector, seed in ((3, 2, 71001), (4, 2, 71002), (4, 3, 71003)):
            rho = fock.random_density(m, seed, sector=sector)
            assert fock.contraction_check(*fock.pdms_from_rho(rho), sector) <= 1e-10
        # Slater factorization, standard and rotated orbitals
        for m, n, seed in ((3, 2, 72001), (4, 2, 72002), (4, 3, 72003)):
            orbitals = random_unitary(np.random.default_rng(seed), m)[:, :n]
            state = slater_state(orbitals, m)
            rho = np.outer(state, state.conj())
            gamma, Gamma = fock.pdms_from_rho(rho)
            ex = exchange_matrix(m)
            assert np.max(np.abs(gamma - orbitals @ orbitals.conj().T)) <= 1e-12
            assert np.max(np.abs(Gamma - (np.eye(m * m) - ex) @ np.kron(gamma, gamma))) <= 1e-12
            kappa = fock.from_operator(rho)
            assert np.max(np.abs(cond.pdm2_from_density(kappa) - Gamma)) <= 1e-12


def test_criterion_07_necessary_condition_suite():
    with criterion(7, "both condition batteries on 100 densities at m = 3 and 50 at m = 4",
                   budget_s=600):
        for m, reps, base in ((3, 100, 81000), (4, 50, 82000)):
            for trial in range(reps):
                rho = fock.random_density(m, base + trial)
                kappa = fock.from_operator(rho)
                gamma = cond.pdm1_from_density(kappa)
                Gamma = cond.pdm2_from_density(kappa)
                tol = 1e-9 * (1.0 + float(np.max(np.abs(Gamma))))
                moments = _moments(kappa.to_vector(), m)
                P = cond._star_form("P", moments, m)
                for rep in battery(gamma, Gamma) + cond._star_battery(moments, m, P):
                    assert rep.margin >= -tol, (m, trial, rep)
                for name, closed in (("P", cond.check_P(gamma, Gamma)),
                                     ("Q", cond.check_Q(gamma, Gamma)),
                                     ("G", cond.check_G(gamma, Gamma))):
                    form = cond.condition_form_report(kappa, name)
                    assert abs(closed.margin - form.margin) <= 1e-8, (m, trial, name)


def test_criterion_08_t_scalar_form_cross_check():
    rng = np.random.default_rng(3008)
    with criterion(8, "T1/T2 scalars match form evaluations, 50 probes each at m = 4"):
        m = 4
        rho = fock.random_density(m, 90001)
        kappa = fock.from_operator(rho)
        gamma = cond.pdm1_from_density(kappa)
        Gamma = cond.pdm2_from_density(kappa)
        probes = word_probes(CONDITIONS["T1"].words(m), m)
        F1 = probe_form(kappa, probes, "anticommutator")
        triples = list(combinations(range(m), 3))
        for _ in range(50):
            t = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
            T = np.zeros_like(t)
            signed = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                      ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)]
            for perm, s in signed:
                T += s * t.transpose(perm)
            T /= 6
            coords = np.array([6 * T[tr] for tr in triples])
            form_val = (np.vdot(coords, F1 @ coords) / 3).real
            scalar = check_T1(gamma, Gamma, T)
            assert abs(scalar - form_val) <= 1e-9 * max(1.0, abs(scalar), abs(form_val))
        probes = word_probes(CONDITIONS["T2"].words(m), m)
        F2 = probe_form(kappa, probes, "anticommutator")
        pairs = list(combinations(range(m), 2))
        wrong_order_matches = 0
        for _ in range(50):
            T = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            ta = (T - T.transpose(1, 0, 2)) / 2
            coords = np.array([2 * ta[i, j, k] for (i, j) in pairs for k in range(m)]
                              + list(a))
            form_val = np.vdot(coords, F2 @ coords).real
            scalar = check_T2_generalized(gamma, Gamma, T, a)
            assert abs(scalar - form_val) <= 1e-9 * max(1.0, abs(scalar), abs(form_val))
            # the alternative linear-term index order must disagree: this pins
            # the resolved ordering sum_q [T_j^(A)]_{q i} conj(a_q)
            flip = 2 * (np.einsum("iqj,q,ji->", ta, a.conj(), gamma)
                        - np.einsum("qij,q,ji->", ta, a.conj(), gamma)).real
            if abs((scalar + flip) - form_val) <= 1e-9 * max(1.0, abs(scalar)):
                wrong_order_matches += 1
        assert wrong_order_matches < 50


def test_criterion_09_quasifree_round_trip():
    rng = np.random.default_rng(3009)
    with criterion(9, "quasifree pdm recovery, Wick factorization, boundary projectors"):
        built = 0
        while built < 50:
            for m in (2, 3, 4):
                v = random_unitary(rng, m)
                lam = rng.uniform(0.05, 0.95, m)
                gamma = v @ np.diag(lam) @ v.conj().T
                _, kappa = qf.build_quasifree(gamma)
                assert np.max(np.abs(cond.pdm1_from_density(kappa) - gamma)) <= 1e-9
                built += 1
        lam = np.array([0.2, 0.5, 0.8])
        v = random_unitary(rng, 3)
        spec, kappa = qf.build_quasifree(v @ np.diag(lam) @ v.conj().T)
        assert qf.verify_quasifree(kappa, spec, max_points=6) <= 1e-9
        # boundary occupations give exact Slater projectors
        for m, occ in ((2, [1.0, 0.0]), (3, [1.0, 1.0, 0.0])):
            v = random_unitary(rng, m)
            gamma = v @ np.diag(occ) @ v.conj().T
            _, kappa = qf.build_quasifree(gamma)
            rho = fock.to_operator(kappa)
            n = int(round(sum(occ)))
            state = slater_state(np.linalg.eigh(gamma)[1][:, ::-1][:, :n], m)
            spectrum = np.sort(np.linalg.eigvalsh(rho))
            want = np.zeros(1 << m)
            want[-1] = 1.0
            assert np.max(np.abs(spectrum - want)) <= 1e-12
            overlap = abs(np.vdot(state, rho @ state))
            assert abs(overlap - 1.0) <= 1e-11


def test_criterion_10_generator_change_invariance():
    rng = np.random.default_rng(3010)
    with criterion(10, "trace invariance under 20 random unitaries; rotation-covariant quasifree"):
        m = 3
        for _ in range(20):
            u = random_unitary(rng, m)
            a = rand_element(rng, m, nterms=10)
            rotated = change_generators(a, u)
            assert abs(trace_integral(rotated) - trace_integral(a)) <= 1e-10
        for _ in range(5):
            v = random_unitary(rng, m)
            lam = rng.uniform(0.1, 0.9, m)
            w = random_unitary(rng, m)
            gamma = w @ np.diag(lam) @ w.conj().T
            _, kappa_rot = qf.build_quasifree(v @ gamma @ v.conj().T)
            _, kappa = qf.build_quasifree(gamma)
            g_rot = cond.pdm1_from_density(kappa_rot)
            g_base = cond.pdm1_from_density(kappa)
            assert np.max(np.abs(g_rot - v @ g_base @ v.conj().T)) <= 1e-9
