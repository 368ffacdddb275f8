"""Representability conditions: dual-path checks and pdm extraction."""

import json
import math
from itertools import combinations, product

import numpy as np
import pytest

from grdm import closed
from grdm import conditions as cond
from grdm import fock, kernel, quasifree
from grdm.algebra import (
    _star_monomials_terms,
    involution,
    make_element,
    psi,
    psibar,
    star,
    star_trace,
    trace_integral,
    unit,
)
from grdm.closed import _index_form, _index_map, _source, _validate_pair
from grdm.kernel import GrassmannElement, Monomial
from grdm.limits import ELEMENT_CAP, PSD_REL_TOL, _coo_apply
from grdm.table import CONDITIONS, Condition, ConditionReport
from _reference import (_t1_stacks, _t2_stacks, canonical_entries, check_T1, check_T2_generalized,
                        exchange_matrix, form_entries_reference, g_condition_matrix, hand_index_form,
                        probe_form, q_condition_matrix, slater_state, t1_bilinear, t2_bilinear,
                        t2a_value, word_probes)
from conftest import rand_element, random_unitary


def genuine(m, seed, sector=None):
    rho = fock.random_density(m, seed, sector=sector)
    kappa = fock.from_operator(rho)
    gamma, Gamma = fock.pdms_from_rho(rho)
    return rho, kappa, gamma, Gamma


def batteries(kappa, gamma, Gamma):
    """The closed battery on (gamma, Gamma), then the star-product battery on kappa's moments."""
    moments = kernel._moments(kappa.to_vector(), kappa.m)
    P = cond._star_form("P", moments, kappa.m)
    return closed.battery(gamma, Gamma) + cond._star_battery(moments, kappa.m, P)


def rand_antisym3(rng, m):
    t = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
    out = np.zeros_like(t)
    signed = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
              ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)]
    for perm, s in signed:
        out += s * t.transpose(perm)
    return out / 6


def rand_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def rand_pair_antisymmetric(rng, m):
    """A random Hermitian Gamma antisymmetric in each pair index, as every two-body matrix is."""
    a = rng.standard_normal((m,) * 4) + 1j * rng.standard_normal((m,) * 4)
    a = (a - a.transpose(1, 0, 2, 3) - a.transpose(0, 1, 3, 2) + a.transpose(1, 0, 3, 2)).reshape(m * m, -1)
    return (a + a.conj().T) / 2


def pair_swapped(Gamma):
    """Gamma[(l, k), (l', k')] at (k, l), (k', l'): the reading of Q's derived form."""
    m = math.isqrt(len(Gamma))
    return Gamma.reshape(m, m, m, m).transpose(1, 0, 3, 2).reshape(Gamma.shape)


def reference_pairs(m, seed, rng, antisymmetric=False):
    """A P-shifted genuine pair, then a random Hermitian pair, pair-antisymmetric or not."""
    _, _, gamma, Gamma = genuine(m, seed)
    random = rand_pair_antisymmetric(rng, m) if antisymmetric else rand_hermitian(rng, m * m)
    return [(gamma, Gamma - 0.05 * np.eye(m * m)), (rand_hermitian(rng, m), random)]


class TestPdmExtraction:
    def test_vacuum_density(self):
        vac = np.zeros((8, 8), dtype=complex)
        vac[0, 0] = 1.0
        kappa = fock.from_operator(vac)
        assert not cond.pdm1_from_density(kappa).any()
        assert not cond.pdm2_from_density(kappa).any()

    def test_single_mode_occupied(self):
        m = 3
        state = slater_state(np.eye(m)[:, :1], m)
        kappa = fock.from_operator(np.outer(state, state.conj()))
        gamma = cond.pdm1_from_density(kappa)
        assert np.allclose(gamma, np.diag([1.0, 0, 0]), atol=1e-12)

    def test_two_mode_slater_factorization(self):
        m = 2
        state = slater_state(np.eye(2), m)
        kappa = fock.from_operator(np.outer(state, state.conj()))
        gamma = cond.pdm1_from_density(kappa)
        Gamma = cond.pdm2_from_density(kappa)
        assert np.allclose(gamma, np.eye(2), atol=1e-12)
        ex = exchange_matrix(m)
        assert np.allclose(Gamma, (np.eye(4) - ex) @ np.kron(gamma, gamma), atol=1e-12)

    def test_agrees_with_oracle(self):
        for m, seed in [(2, 3), (3, 4), (4, 5)]:
            _, kappa, gamma_o, Gamma_o = genuine(m, seed)
            assert np.max(np.abs(cond.pdm1_from_density(kappa) - gamma_o)) < 1e-10
            assert np.max(np.abs(cond.pdm2_from_density(kappa) - Gamma_o)) < 1e-10

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            cond.pdm1_from_density(unit(2))

    def test_moment_zero_is_trace_integral(self, rng):
        # random terms rarely sit on the diagonal, so a third of it is added
        for m in range(1, 7):
            rows, index = kernel._moment_map(m)
            terms = dict(rand_element(rng, m, nterms=12).terms)
            terms.update({Monomial(bar, bar): complex(rng.standard_normal(), 1.0)
                          for bar in range(0, 1 << m, 3)})
            a = GrassmannElement(m, terms)
            moment0 = _coo_apply(*rows, a.to_vector(), len(index))[0]
            assert abs(moment0 - trace_integral(a)) <= 1e-12 * (1 << m)

    def test_table_maps_share_one_moment_map(self):
        # every table form's columns index the moments of the one moment map
        # at its m, T1's empty row at m <= 2 included
        for m in (1, 2, 3, 5):
            _, index = kernel._moment_map(m)
            assert len(index) == 1 + m * m + (m * (m - 1) // 2) ** 2
            for name, row in CONDITIONS.items():
                (rows, cols, coeffs), n = cond._probe_set_map(name, m)
                assert n == len(row.words(m)) and (n == 0) == (name == "T1" and m <= 2)
                assert rows.dtype == cols.dtype == np.intp and coeffs.dtype == complex
                assert len(rows) == len(cols) == len(coeffs) and (n > 0 or len(rows) == 0)
                assert np.all((0 <= cols) & (cols < len(index))), (name, m)
                assert np.all((0 <= rows) & (rows < n * n)), (name, m)

    def test_fuzz_trial_converts_density_once(self, monkeypatch):
        calls = []
        to_vector = GrassmannElement.to_vector

        def counted(self):
            calls.append(self.m)
            return to_vector(self)

        monkeypatch.setattr(GrassmannElement, "to_vector", counted)
        cond.fuzz_conditions(5, 1, 3)
        assert calls == [5]

    def test_fuzz_trial_seeds_are_the_spawned_children(self, monkeypatch):
        # trial k draws from SeedSequence(seed, spawn_key=(k,)), built when the
        # trial starts, which is the k-th child of SeedSequence(seed).spawn
        for seed, trials in ((0, 4), (7, 3), (2**40 + 1, 5)):
            for k, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
                mine = np.random.SeedSequence(seed, spawn_key=(k,))
                assert np.array_equal(mine.generate_state(8), child.generate_state(8))
        seeds = []
        random_density = fock.random_density
        monkeypatch.setattr(fock, "random_density", lambda m, child, sector: seeds.append(
            (child.entropy, child.spawn_key)) or random_density(m, child, sector))
        cond.fuzz_conditions(2, 3, 7)
        assert seeds == [(7, (0,)), (7, (1,)), (7, (2,))]


class TestQuadraticForm:
    def test_unit_probe(self):
        _, kappa, _, _ = genuine(2, 7)
        F = probe_form(kappa, [unit(2)])
        assert np.allclose(F, [[1.0]], atol=1e-12)

    def test_psi_probes_reproduce_gamma_bound(self):
        # <p_k* star p_l> = <pbar_k star p_l> = gamma[l, k]: the gamma >= 0 bound
        m = 3
        _, kappa, gamma, _ = genuine(m, 8)
        probes = [psi(k, m) for k in range(1, m + 1)]
        F = probe_form(kappa, probes)
        assert np.max(np.abs(F - gamma.T)) < 1e-10

    def test_psibar_probes_reproduce_upper_bound(self):
        # <p_k star pbar_l> = delta_kl - gamma[k, l]: the gamma <= 1 bound
        m = 3
        _, kappa, gamma, _ = genuine(m, 9)
        probes = [psibar(k, m) for k in range(1, m + 1)]
        F = probe_form(kappa, probes)
        assert np.max(np.abs(F - (np.eye(m) - gamma))) < 1e-10

    def test_matches_star_product_route(self, rng):
        # reference: the density multiplied into each probe, then traced
        def star_route(kappa, probes, mode):
            bstars = [involution(b) for b in probes]
            left = [star(kappa, bs) for bs in bstars]
            F = np.array([[star_trace(lb, b) for b in probes] for lb in left])
            if mode == "anticommutator":
                right = [star(kappa, b) for b in probes]
                F += np.array([[star_trace(rb, bs) for rb in right] for bs in bstars])
            return (F + F.conj().T) / 2

        for m in (2, 3, 4, 5):
            _, kappa, _, _ = genuine(m, 100 + m)
            probes = [rand_element(rng, m, nterms=3) for _ in range(4)]
            for mode in ("plain", "anticommutator"):
                F = probe_form(kappa, probes, mode)
                want = star_route(kappa, probes, mode)
                assert np.max(np.abs(F - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


class TestPQG:
    def test_genuine_passes_all(self):
        for m, seed in [(2, 21), (3, 22), (4, 23)]:
            _, kappa, gamma, Gamma = genuine(m, seed)
            for rep in batteries(kappa, gamma, Gamma):
                assert rep.passed, rep

    def test_slater_passes_all(self, rng):
        m = 4
        orbitals = random_unitary(rng, m)[:, :2]
        state = slater_state(orbitals, m)
        rho = np.outer(state, state.conj())
        kappa = fock.from_operator(rho)
        gamma, Gamma = fock.pdms_from_rho(rho)
        for rep in batteries(kappa, gamma, Gamma):
            assert rep.passed and rep.margin >= -1e-10, rep

    def test_closed_vs_form_margins(self):
        for m, seed in [(2, 31), (3, 32), (4, 33), (5, 34)]:
            _, kappa, gamma, Gamma = genuine(m, seed)
            closed = {
                "P": cond.check_P(gamma, Gamma),
                "Q": cond.check_Q(gamma, Gamma),
                "G": cond.check_G(gamma, Gamma),
            }
            for name, rep in closed.items():
                form = cond.condition_form_report(kappa, name)
                assert abs(rep.margin - form.margin) < 1e-8, (name, rep, form)

    def test_form_report_reuses_cached_map(self):
        _, kappa, _, _ = genuine(3, 35)
        cond.condition_form_report(kappa, "P")
        before = cond._probe_set_map.cache_info()
        cond.condition_form_report(kappa, "P")
        after = cond._probe_set_map.cache_info()
        assert after.misses == before.misses and after.hits == before.hits + 1

    def test_q_matrix_halffilled_uncorrelated(self):
        # gamma = I/2, Gamma = 0 at m = 2: Q matrix is (1 - Ex) * 0 ... check value
        m = 2
        gamma = 0.5 * np.eye(m)
        Gamma = np.zeros((4, 4))
        rep_p = cond.check_P(gamma, Gamma)
        assert rep_p.passed and abs(rep_p.margin) < 1e-12
        qmat = q_condition_matrix(gamma, Gamma)
        ex = exchange_matrix(m)
        want = (np.eye(4) - ex) @ (np.eye(4) - np.kron(gamma, np.eye(m)) - np.kron(np.eye(m), gamma))
        assert np.allclose(qmat, want)
        assert cond.check_Q(gamma, Gamma).margin == pytest.approx(0.0, abs=1e-12)

    def test_injected_negative_eigenvalue_fails_P(self):
        _, kappa, gamma, Gamma = genuine(3, 41)
        evals, evecs = np.linalg.eigh(Gamma)
        v = evecs[:, -1]
        bad = Gamma - (evals[-1] + 0.1) * np.outer(v, v.conj())
        rep = cond.check_P(gamma, bad)
        assert not rep.passed and rep.margin == pytest.approx(-0.1, abs=1e-9)

    def test_g_form_identity_contraction(self):
        _, _, gamma, Gamma = genuine(3, 42)
        m = 3
        mg = g_condition_matrix(gamma, Gamma)
        vec_id = np.eye(m).reshape(-1)
        lhs = np.vdot(vec_id, mg @ vec_id)
        ex = exchange_matrix(m)
        rhs = np.trace(Gamma + ex @ np.kron(gamma, np.eye(m))) - abs(np.trace(gamma)) ** 2
        assert abs(lhs - rhs) < 1e-10

    def test_non_hermitian_rejected(self):
        gamma = np.array([[0.5, 0.3], [0.1, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            cond.check_P(gamma, np.zeros((4, 4)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            cond.check_P(np.eye(2) * 0.5, np.zeros((9, 9)))


class TestT1:
    def test_rejects_non_antisymmetric(self):
        _, _, gamma, Gamma = genuine(3, 51)
        with pytest.raises(ValueError, match="antisymmetric"):
            check_T1(gamma, Gamma, np.ones((3, 3, 3)))

    def test_genuine_scalar_nonnegative(self, rng):
        _, _, gamma, Gamma = genuine(4, 52)
        for _ in range(20):
            T = rand_antisym3(rng, 4)
            scale = 1.0 + np.abs(T).max() ** 2
            assert check_T1(gamma, Gamma, T) >= -1e-9 * scale

    def test_small_m_sentinel(self):
        _, kappa, _, _ = genuine(2, 53)
        rep = cond.check_T1_full(kappa)
        assert rep.passed and rep.margin == np.inf

    def test_scalar_matches_form_evaluation(self, rng):
        m = 4
        _, kappa, gamma, Gamma = genuine(m, 54)
        probes = word_probes(CONDITIONS["T1"].words(m), m)
        F = probe_form(kappa, probes, "anticommutator")
        triples = list(combinations(range(m), 3))
        for _ in range(15):
            T = rand_antisym3(rng, m)
            coords = np.array([6 * T[t] for t in triples])
            form_val = (np.vdot(coords, F @ coords) / 3).real
            scalar = check_T1(gamma, Gamma, T)
            assert abs(scalar - form_val) <= 1e-9 * max(1.0, abs(scalar))

    def test_form_routes_agree(self):
        m = 4
        _, kappa, gamma, Gamma = genuine(m, 55)
        probes = word_probes(CONDITIONS["T1"].words(m), m)
        dens_route = probe_form(kappa, probes, "anticommutator")
        pdm_route = cond.t1_form_from_pdms(gamma, Gamma)
        assert np.max(np.abs(dens_route - pdm_route)) < 1e-10

    def test_full_report_passes_genuine(self):
        _, kappa, _, _ = genuine(4, 56)
        assert cond.check_T1_full(kappa).passed

    def test_shape_validation(self):
        _, _, gamma, Gamma = genuine(4, 58)
        with pytest.raises(ValueError, match=r"\(3, 3, 3\) does not match \(4, 4, 4\)"):
            check_T1(gamma, Gamma, np.zeros((3, 3, 3)))
        with pytest.raises(ValueError, match="square"):
            check_T1(np.float64(0.5), Gamma, np.zeros((4, 4, 4)))

    @pytest.mark.parametrize("m", range(3, 9))
    def test_scalar_matches_bilinear_reference(self, m, rng):
        for gamma, Gamma in reference_pairs(m, 59, rng):
            for _ in range(3):
                T = rand_antisym3(rng, m)
                want = t1_bilinear(T, T, gamma, Gamma).real
                assert abs(check_T1(gamma, Gamma, T) - want) <= 1e-12 * (1 + abs(want))

    def test_batched_form_matches_bilinear_loop(self, rng):
        for m in range(1, 7):
            # the T1 form is empty below m = 3
            tensors = _t1_stacks(m)["E"]
            for gamma, Gamma in reference_pairs(m, 57, rng):
                F = np.array([[3 * t1_bilinear(ta, tb, gamma, Gamma) for tb in tensors]
                              for ta in tensors]).reshape(len(tensors), len(tensors))
                want = (F + F.conj().T) / 2
                got = cond.t1_form_from_pdms(gamma, Gamma)
                assert got.shape == want.shape
                scale = max(1.0, np.max(np.abs(want), initial=0.0))
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale, m


class TestT2:
    def test_genuine_scalar_nonnegative(self, rng):
        _, _, gamma, Gamma = genuine(4, 61)
        for _ in range(20):
            T = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
            a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            scale = 1.0 + np.abs(T).max() ** 2 + np.abs(a).max() ** 2
            assert check_T2_generalized(gamma, Gamma, T, a) >= -1e-9 * scale

    def test_scalar_matches_form_evaluation(self, rng):
        m = 4
        _, kappa, gamma, Gamma = genuine(m, 62)
        probes = word_probes(CONDITIONS["T2"].words(m), m)
        F = probe_form(kappa, probes, "anticommutator")
        pairs = list(combinations(range(m), 2))
        for _ in range(15):
            T = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            ta = (T - T.transpose(1, 0, 2)) / 2
            coords = np.array([2 * ta[i, j, k] for (i, j) in pairs for k in range(m)]
                              + list(a))
            form_val = np.vdot(coords, F @ coords).real
            scalar = check_T2_generalized(gamma, Gamma, T, a)
            assert abs(scalar - form_val) <= 1e-9 * max(1.0, abs(scalar))

    def test_wrong_linear_index_order_disagrees(self, rng):
        # the rejected reading of the mixed gamma term: second summand with
        # slice index order [T_j^(A)]_{i q} instead of [T_j^(A)]_{q i}
        m = 4
        _, kappa, gamma, Gamma = genuine(m, 63)
        probes = word_probes(CONDITIONS["T2"].words(m), m)
        F = probe_form(kappa, probes, "anticommutator")
        pairs = list(combinations(range(m), 2))
        worst = 0.0
        for _ in range(10):
            T = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            ta = (T - T.transpose(1, 0, 2)) / 2
            coords = np.array([2 * ta[i, j, k] for (i, j) in pairs for k in range(m)]
                              + list(a))
            form_val = np.vdot(coords, F @ coords).real
            good = check_T2_generalized(gamma, Gamma, T, a)
            flip = 2 * np.einsum("iqj,q,ji->", ta, a.conj(), gamma) \
                - 2 * np.einsum("qij,q,ji->", ta, a.conj(), gamma)
            bad = good + flip.real
            worst = max(worst, abs(bad - form_val))
            assert abs(good - form_val) <= 1e-9 * max(1.0, abs(good))
        assert worst > 1e-3

    def test_t2a_reduction(self, rng):
        m = 4
        _, _, gamma, Gamma = genuine(m, 64)
        for _ in range(10):
            T = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
            T = (T - T.transpose(1, 0, 2)) / 2
            full = check_T2_generalized(gamma, Gamma, T, np.zeros(m))
            special = t2a_value(gamma, Gamma, T)
            assert abs(full - special) <= 1e-9 * max(1.0, abs(full))

    def test_pure_linear_part_is_norm(self, rng):
        _, _, gamma, Gamma = genuine(3, 65)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        val = check_T2_generalized(gamma, Gamma, np.zeros((3, 3, 3)), a)
        assert val == pytest.approx(float(np.vdot(a, a).real), abs=1e-12)

    def test_form_routes_agree(self):
        m = 3
        _, kappa, gamma, Gamma = genuine(m, 66)
        probes = word_probes(CONDITIONS["T2"].words(m), m)
        dens_route = probe_form(kappa, probes, "anticommutator")
        pdm_route = cond.t2_form_from_pdms(gamma, Gamma)
        assert np.max(np.abs(dens_route - pdm_route)) < 1e-10

    def test_batched_form_matches_bilinear_loop(self, rng):
        # the derived form reads Gamma at its own index order, which the
        # bilinear value shares on a pair-antisymmetric Gamma only
        for m in range(1, 7):
            stacks = _t2_stacks(m)
            probes = list(zip(stacks["T"], stacks["a"]))
            for gamma, Gamma in reference_pairs(m, 68, rng, antisymmetric=True):
                F = np.array([[t2_bilinear(Tx, ax, Ty, ay, gamma, Gamma) for Ty, ay in probes]
                              for Tx, ax in probes])
                want = (F + F.conj().T) / 2
                got = cond.t2_form_from_pdms(gamma, Gamma)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), m

    def test_shape_validation(self):
        _, _, gamma, Gamma = genuine(3, 67)
        with pytest.raises(ValueError, match="shape"):
            check_T2_generalized(gamma, Gamma, np.zeros((2, 2, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            check_T2_generalized(gamma, Gamma, np.zeros((3, 3, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="square"):
            check_T2_generalized(np.float64(0.5), Gamma, np.zeros((3, 3, 3)), np.zeros(3))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_scalar_matches_bilinear_reference(self, m, rng):
        # the value reads T's first-pair-antisymmetric part, so it equals the
        # reference whenever T is antisymmetric in its first pair or Gamma in
        # each pair index, as a genuine Gamma is; the random Gamma is
        # pair-antisymmetric, where the derived form and the bilinear value
        # read Gamma alike
        _, _, gamma, Gamma = genuine(m, 69)
        assert np.array_equal(Gamma, -Gamma.reshape(m, m, -1).transpose(1, 0, 2).reshape(Gamma.shape))
        cases = [(gamma, Gamma, False)] + [(*pair, True) for pair in reference_pairs(m, 69, rng, antisymmetric=True)]
        for gamma, Gamma, antisym in cases:
            for _ in range(3):
                T = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
                T = (T - T.transpose(1, 0, 2)) / 2 if antisym else T
                a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                want = t2_bilinear(T, a, T, a, gamma, Gamma).real
                got = check_T2_generalized(gamma, Gamma, T, a)
                assert abs(got - want) <= 1e-12 * (1 + abs(want))

    def test_scalar_is_the_form_at_the_coordinates(self, rng):
        # a Gamma not antisymmetric in its pair indices and a T with a
        # symmetric first-pair part: the value is still the form's
        for m in range(1, 7):
            gamma, Gamma = rand_hermitian(rng, m), rand_hermitian(rng, m * m)
            F = cond.t2_form_from_pdms(gamma, Gamma)
            for _ in range(3):
                T = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
                a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                c = np.array([T[i, j, k] - T[j, i, k] for i, j in combinations(range(m), 2)
                              for k in range(m)] + list(a))
                want = np.vdot(c, F @ c).real
                got = check_T2_generalized(gamma, Gamma, T, a)
                assert abs(got - want) <= 1e-12 * (1 + abs(want)), m


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_table_realizations_agree(m):
    # an empty form (T1 below m = 3) has margin inf on both sides; T2 at m = 1
    # is the 1 x 1 form of the linear probe, margin 1
    _, kappa, gamma, Gamma = genuine(m, 90 + m)
    for name in CONDITIONS:
        closed = cond.closed_form_report(name, gamma, Gamma)
        form = cond.condition_form_report(kappa, name)
        assert (closed.margin == form.margin == np.inf
                or abs(closed.margin - form.margin) <= 1e-8), (name, closed, form)


def test_grassmann_forms_match_closed_forms_at_m6(rng):
    # at the star-product cap: a quasifree density built on the Grassmann side
    # and a random Fock density mapped by from_operator, each against the
    # Fock oracle and the closed forms
    m = 6
    u = random_unitary(rng, m)
    _, quasi = quasifree.build_quasifree(u @ np.diag(rng.uniform(0.05, 0.95, m)) @ u.conj().T)
    dense = fock.random_density(m, 83)
    for kappa, rho in ((quasi, fock.to_operator(quasi)), (fock.from_operator(dense), dense)):
        gamma = cond.pdm1_from_density(kappa)
        Gamma = cond.pdm2_from_density(kappa)
        gamma_o, Gamma_o = fock.pdms_from_rho(rho)
        assert np.max(np.abs(gamma - gamma_o)) <= 1e-10
        assert np.max(np.abs(Gamma - Gamma_o)) <= 1e-10
        for name, from_pdms, full in (("T1", cond.t1_form_from_pdms, cond.check_T1_full),
                                      ("T2", cond.t2_form_from_pdms, cond.check_T2_full)):
            probes = word_probes(CONDITIONS[name].words(m), m)
            F = probe_form(kappa, probes, "anticommutator")
            C = from_pdms(gamma, Gamma)
            assert np.max(np.abs(F - C)) <= 1e-10, name
            rep = full(kappa)
            assert rep.passed, rep
            assert abs(rep.margin - cond.report_from_form(name, C, "closed-form").margin) <= 1e-8


@pytest.mark.parametrize("name, closed", [("P", cond.check_P), ("Q", cond.check_Q),
                                          ("G", cond.check_G), ("T1", cond.t1_form_from_pdms),
                                          ("T2", cond.t2_form_from_pdms)])
def test_index_map_built_once_per_m(name, closed):
    # the public entry point of each table condition: a report for P/Q/G, the form for T1/T2
    _index_map.cache_clear()
    _, _, gamma, Gamma = genuine(4, 88)
    first = closed(gamma, Gamma)
    assert _index_map.cache_info().misses == 1
    again = closed(gamma, Gamma)
    assert again == first if name in ("P", "Q", "G") else np.array_equal(again, first)
    info = _index_map.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    (rows, src, coeff), n = _index_map(name, 4)
    assert n == len(CONDITIONS[name].words(4))
    for arr in (rows, src, coeff):
        assert not arr.flags.writeable


def test_table_words_and_maps_reach_the_element_cap():
    # every word is one probe, with one tensor entry per order of each of its
    # antisymmetric runs, and every map builds, up to ELEMENT_CAP; the
    # uncached build keeps the large-m maps out of the cache
    for m in range(1, ELEMENT_CAP + 1):
        for name, row in CONDITIONS.items():
            n = len(row.words(m))
            patterns = closed._patterns(row.words(m), m)
            for _, runs, (probes, _, _) in patterns:
                orders = math.prod(math.factorial(len(run)) for run in runs)
                assert set(np.bincount(probes)[probes].tolist()) == {orders}, (name, m)
            rows = [k for _, _, (probes, _, _) in patterns for k in np.unique(probes).tolist()]
            assert sorted(rows) == list(range(n)), (name, m)
            (rows, src, coeff), count = _index_map.__wrapped__(name, m)
            assert count == n, (name, m)
            assert np.all(rows < n * n) and np.all(src <= m ** 4 + m * m), (name, m)


@pytest.mark.parametrize("m", range(1, 9))
def test_pqg_index_forms_equal_dense_references(m, rng):
    # P is Gamma^T Hermitised, as on the star side, and Q the kron reference
    # on the pair-swapped Gamma: the normal-ordered words read Gamma at those
    # index orders, which agree with Gamma and Q's kron form on a
    # pair-antisymmetric Gamma; G is the einsum reference
    refs = {"P": lambda gamma, Gamma: (Gamma.T + Gamma.conj()) / 2,
            "Q": lambda gamma, Gamma: q_condition_matrix(gamma, pair_swapped(Gamma)),
            "G": g_condition_matrix}
    for gamma, Gamma in reference_pairs(m, 70 + m, rng):
        gamma, Gamma, _ = _validate_pair(gamma, Gamma)
        for name, ref in refs.items():
            want = ref(gamma, Gamma)
            got = _index_form(name, m, _source(gamma, Gamma))
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * (1 + np.max(np.abs(want))), (name, m)


@pytest.mark.parametrize("m", range(1, 9))
def test_derived_index_forms_equal_the_hand_forms(m, rng):
    # the forms derived from the words against the hand-derived stacks and
    # terms, both through closed._term_entries.  Every row agrees on a
    # pair-antisymmetric Gamma and on the P-shifted genuine pair, P as the
    # hand form transposed (the star side's Gamma^T).  On any Hermitian pair
    # G and T1 agree too, P is the transposed hand form and Q the hand form
    # on the pair-swapped Gamma
    _, _, gamma, Gamma = genuine(m, 120 + m)
    exact = [(rand_hermitian(rng, m), rand_pair_antisymmetric(rng, m)), (gamma, Gamma - 0.05 * np.eye(m * m))]
    cases = [(name, g, G, G) for g, G in exact for name in CONDITIONS]
    g, G = rand_hermitian(rng, m), rand_hermitian(rng, m * m)
    cases += [("P", g, G, G), ("Q", g, G, pair_swapped(G)), ("G", g, G, G), ("T1", g, G, G)]
    for name, g, G, G_hand in cases:
        got = _index_form(name, m, _source(g, G))
        want = hand_index_form(name, m, _source(g, G_hand))
        want = want.T if name == "P" else want
        assert got.shape == want.shape, (name, m)
        scale = 1 + np.max(np.abs(want), initial=0.0)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * scale, (name, m)


def test_a_row_that_does_not_reduce_to_pdms_raises(monkeypatch):
    # T1's cubic words in the plain mode keep a three-body term, and a word
    # that is not normal-ordered contracts inside its own probe: neither
    # closed form reads (gamma, Gamma) alone, so the map build refuses both
    refusal = r"^condition {} does not reduce to \(gamma, Gamma\): {}"
    monkeypatch.setitem(CONDITIONS, "T1-plain", Condition(CONDITIONS["T1"].words, "plain", False))
    with pytest.raises(ValueError, match=refusal.format("T1-plain", r"its term .* has 3 creators")):
        _index_map.__wrapped__("T1-plain", 4)
    p_pbar = Condition(lambda m: [[m + k, l] for k in range(m) for l in range(m)], "plain", False)
    monkeypatch.setitem(CONDITIONS, "p pbar", p_pbar)
    with pytest.raises(ValueError, match=refusal.format("p pbar", "a word that is not normal-ordered")):
        _index_map.__wrapped__("p pbar", 3)


def test_a_row_the_shared_moments_cannot_carry_raises(monkeypatch):
    # the star-side twin of the closed refusal above: the plain-mode T1
    # keeps three-body terms, which lie outside the shared moment map, and
    # the wedge product reorders a word that is not normal-ordered without
    # the contraction the CAR adds; the map build refuses both, naming the row
    refusal = r"^condition {} does not reduce to \(gamma, Gamma\): {}"
    monkeypatch.setitem(CONDITIONS, "T1-plain", Condition(CONDITIONS["T1"].words, "plain", False))
    with pytest.raises(ValueError, match=refusal.format("T1-plain", "an entry reads a monomial outside")):
        cond._probe_set_map.__wrapped__("T1-plain", 4)
    p_pbar = Condition(lambda m: [[m + k, l] for k in range(m) for l in range(m)], "plain", False)
    monkeypatch.setitem(CONDITIONS, "p pbar", p_pbar)
    with pytest.raises(ValueError, match=refusal.format("p pbar", "a word that is not normal-ordered")):
        cond._probe_set_map.__wrapped__("p pbar", 3)


# The catalogue at degree <= 3: a row is one creator/annihilator pattern of
# degree 1-3, or an unordered pair of distinct patterns, in either mode, not
# centred; 2 * (14 + 91) = 210 rows.  A pattern's words are the index tuples
# whose adjacent same-type generators strictly increase.
CATALOGUE_PATTERNS = [t for k in (1, 2, 3) for t in product(("pbar", "p"), repeat=k)]


def _catalogue_words(patterns, m):
    words = []
    for pattern in patterns:
        for idx in product(range(m), repeat=len(pattern)):
            if all(i < j for a, b, i, j in zip(pattern, pattern[1:], idx, idx[1:]) if a == b):
                words.append([i if t == "pbar" else m + i for t, i in zip(pattern, idx)])
    return words


CATALOGUE = {(mode, " + ".join(" ".join(p) for p in group)):
             Condition(lambda m, group=group: _catalogue_words(group, m), mode, False)
             for mode in ("plain", "anticommutator")
             for group in [(p,) for p in CATALOGUE_PATTERNS] + list(combinations(CATALOGUE_PATTERNS, 2))}

# the rows the closed side accepts at every m from 3 to 6: P, Q, G, T1 and
# T2 are among them, with their adjoint patterns and direct sums
ACCEPTED = ({("plain", name) for name in ("pbar", "p", "pbar pbar", "pbar p", "p p")}
            | {("anticommutator", name) for name in (
                "pbar", "p", "pbar pbar", "pbar p", "p p", "pbar pbar pbar", "pbar pbar p",
                "pbar p p", "p p p", "pbar + p", "pbar + pbar pbar p", "pbar + p p p",
                "p + pbar pbar pbar", "p + pbar p p", "pbar pbar pbar + p p p")})
# the star side also accepts these at small m, where the terms the closed
# side refuses vanish for want of modes
STAR_EXTRA = {
    3: {("plain", "pbar pbar + p p")} | {("anticommutator", name) for name in (
        "pbar pbar + p p", "pbar pbar + p p p", "p p + pbar pbar pbar",
        "pbar pbar pbar + pbar p p", "pbar pbar p + p p p")},
    4: {("anticommutator", "pbar pbar + p p p"), ("anticommutator", "p p + pbar pbar pbar")},
    5: set(),
    6: set(),
}
REFUSALS = {
    "closed": ("a word that is not normal-ordered contracts inside its probe", "its term "),
    "star": ("a word that is not normal-ordered drops the CAR's contraction",
             "an entry reads a monomial outside the shared moment map"),
}


def test_condition_catalogue_on_both_realizations(monkeypatch):
    # every row of the catalogue is built on both sides at m = 3-6: the
    # accepted sets are pinned by name, and every refusal is one of its
    # side's two documented messages.  The sides differ at m = 3 and 4, so
    # a candidate row must reduce on both sides at every m before it joins
    # the table.
    assert len(CATALOGUE) == 210
    builders = {"closed": _index_map.__wrapped__, "star": cond._probe_set_map.__wrapped__}
    prefix = "condition catalogue row does not reduce to (gamma, Gamma): "
    for m, extra in STAR_EXTRA.items():
        for side, build in builders.items():
            accepted = set()
            for key, row in CATALOGUE.items():
                monkeypatch.setitem(CONDITIONS, "catalogue row", row)
                try:
                    build("catalogue row", m)
                except ValueError as exc:
                    assert str(exc).startswith(tuple(prefix + r for r in REFUSALS[side])), (m, side, key, exc)
                else:
                    accepted.add(key)
            assert accepted == (ACCEPTED | extra if side == "star" else ACCEPTED), (m, side)


def _quasifree_spectra(lam):
    """The analytic P, Q, G and T1 spectra of the quasifree pair of occupations lam.

    P and Q read all m * m pair words, so their forms add m(m+1)/2 zeros for
    the vanishing words p_k p_k and the repeats p_l p_k = -p_k p_l; judged on
    the k < l words alone, P and Q would be {lam_k lam_l} and
    {(1 - lam_k)(1 - lam_l)} without the zeros.
    """
    m, hole = len(lam), 1 - lam
    pairs, zeros = list(combinations(range(m), 2)), [0.0] * (m * (m + 1) // 2)
    return {"P": [2 * lam[k] * lam[l] for k, l in pairs] + zeros,
            "Q": [2 * hole[k] * hole[l] for k, l in pairs] + zeros,
            "G": [lam[k] * hole[l] for k in range(m) for l in range(m)],
            "T1": [lam[i] * lam[j] * lam[k] + hole[i] * hole[j] * hole[k]
                   for i, j, k in combinations(range(m), 3)]}


@pytest.mark.parametrize("m, lam", [(1, None), (3, None), (9, None), (12, None),
                                    (5, [0.0, 1.0, 1.0, 0.0, 1.0])])
def test_index_forms_match_quasifree_spectra(m, lam):
    # an analytic oracle for the closed forms at any m, past the Fock cap:
    # the Wick pair of gamma = u diag(lam) u^H has known P, Q, G and T1
    # spectra, the boundary occupations 0 and 1 of a Slater state included
    rng = np.random.default_rng(400 + m)
    lam = rng.uniform(0, 1, m) if lam is None else np.array(lam)
    u = random_unitary(rng, m)
    gamma, Gamma = quasifree.wick_pdms(u @ np.diag(lam) @ u.conj().T)
    source = _source(gamma, Gamma)
    for name, want in _quasifree_spectra(lam).items():
        got = np.linalg.eigvalsh(_index_form(name, m, source))
        assert got.shape == (len(want),), (name, m)
        assert np.max(np.abs(got - np.sort(want)), initial=0.0) <= 1e-13, (name, m)


@pytest.mark.parametrize("m", [9, 12])
def test_battery_margins_are_rotation_invariant_past_the_fock_cap(m, rng):
    # past the Fock cap no density checks a generic pair, but every margin is
    # invariant under gamma -> U gamma U^H, Gamma -> (U x U) Gamma (U x U)^H.
    # Gamma is Hermitian and pair-antisymmetric but indefinite, so the P and
    # Q margins carry information.  Every CAR term of a derived form is a
    # covariant contraction, so a dropped term keeps the margins invariant
    # and this test cannot catch it; it catches what depends on the size
    # alone, such as the index dtypes, `_join` and the COO apply
    gamma, Gamma = rand_hermitian(rng, m), rand_pair_antisymmetric(rng, m)
    u = random_unitary(rng, m)
    uu = np.kron(u, u)
    before = closed.battery(gamma, Gamma)
    after = closed.battery(u @ gamma @ u.conj().T, uu @ Gamma @ uu.conj().T)
    assert before[1].margin < 0 and before[2].margin < 0
    for a, b in zip(before, after):
        # a report's tol is PSD_REL_TOL * (1 + max|F|) of its form F
        assert abs(a.margin - b.margin) <= 1e-12 * a.tol / PSD_REL_TOL, (m, a, b)


def test_report_verdict_is_derived():
    # the verdict is the margin against tol, never a stored flag; NaN fails
    rep = ConditionReport("P", -1e-10, 1e-9, "closed-form")
    assert rep.passed and rep.as_dict()["pass"] is True
    assert "passed" not in rep._fields
    assert not rep._replace(tol=1e-11).passed
    assert not rep._replace(margin=float("nan")).passed
    assert rep._replace(margin=np.inf, tol=0.0).passed


def test_battery_validates_the_pair_once(monkeypatch):
    _, _, gamma, Gamma = genuine(3, 89)
    calls = []
    # the battery lives in `closed` and looks the validator up there
    validate = closed._validate_pair
    monkeypatch.setattr(closed, "_validate_pair",
                        lambda *pair: calls.append(1) or validate(*pair))
    reports = closed.battery(gamma, Gamma)
    assert [r.condition for r in reports] == ["first-order", *CONDITIONS]
    assert len(calls) == 1


@pytest.mark.parametrize("m", range(1, 9))
def test_battery_reports_equal_the_checking_path(m, rng):
    # the battery sends each closed form straight to its eigensolve; the
    # Hermiticity-checked path gives the same reports float for float, on
    # genuine, P-shifted and random Hermitian pairs, the empty T1 form
    # (margin inf) below m = 3 included
    _, _, gamma, Gamma = genuine(m, 90 + m)
    for gamma, Gamma in [(gamma, Gamma)] + reference_pairs(m, 90 + m, rng):
        gamma, Gamma, _ = _validate_pair(gamma, Gamma)
        source = _source(gamma, Gamma)
        want = [cond.first_order_report(gamma)] + [
            cond.report_from_form(name, _index_form(name, m, source), "closed-form")
            for name in CONDITIONS]
        got = closed.battery(gamma, Gamma)
        assert [r.as_dict() for r in got] == [r.as_dict() for r in want], m
        assert (got[4].margin == np.inf) == (m < 3)


@pytest.mark.parametrize("m, slater", [(m, False) for m in range(1, 8)] + [(4, True)],
                         ids=[f"random-{m}" for m in range(1, 8)] + ["slater-4"])
def test_the_batteries_agree(m, slater, rng):
    # the closed battery on the star-extracted pdms and the star battery on
    # the same moments: the same rows in the same order with the same
    # verdicts, margins within roundoff.  A Slater state's margins sit at 0;
    # the empty T1 form gives inf on both sides below m = 3
    if slater:
        state = slater_state(random_unitary(rng, m)[:, :2], m)
        rho = np.outer(state, state.conj())
    else:
        rho = fock.random_density(m, 100 + m)
    moments = kernel._moments(fock.from_operator(rho).to_vector(), m)
    P = cond._star_form("P", moments, m)
    gamma, Gamma = kernel._pdm1(moments, m), P.T
    got, want = closed.battery(gamma, Gamma), cond._star_battery(moments, m, P)
    assert [(r.condition, r.passed) for r in got] == [(r.condition, r.passed) for r in want]
    tol = 1e-12 * (1 + np.max(np.abs(Gamma)))
    for a, b in zip(got, want):
        assert a.margin == b.margin == np.inf or abs(a.margin - b.margin) <= tol, (a, b)
    assert (got[4].margin == np.inf) == (m < 3)
    if slater:
        assert max(abs(r.margin) for r in want[1:]) <= tol


def test_grassmann_form_hermiticity_check_fires():
    # a unit-trace kappa that is not self-adjoint has a non-Hermitian T2
    # form; the star-product side refuses to judge it, alone and in its
    # battery, where its gamma fails the check first
    _, kappa, _, _ = genuine(3, 91)
    bad = kappa + make_element(3, [((1,), (2,), 0.01)])
    assert abs(trace_integral(bad) - 1) <= 1e-12
    with pytest.raises(ValueError, match="T2: form matrix is not Hermitian"):
        cond.check_T2_full(bad)
    with pytest.raises(ValueError, match="gamma is not Hermitian"):
        moments = kernel._moments(bad.to_vector(), 3)
        cond._star_battery(moments, 3, cond._star_form("P", moments, 3))


def test_index_maps_agree_with_grassmann_forms_at_m6():
    m = 6
    _, kappa, gamma, Gamma = genuine(m, 86)
    moments = kernel._moments(kappa.to_vector(), m)
    for name in ("T1", "T2"):
        F = cond._star_form(name, moments, m)
        C = _index_form(name, m, _source(gamma, Gamma))
        assert np.max(np.abs(F - C)) <= 1e-10, name
        form = cond.condition_form_report(kappa, name)
        closed = cond.closed_form_report(name, gamma, Gamma)
        assert form.passed and closed.passed
        assert abs(form.margin - closed.margin) <= 1e-8, name


def _assert_form_map_equals_scalar_builder(name, m):
    # the map's columns named by their moments' monomials, against the
    # element reference's entries on the same monomials
    row = CONDITIONS[name]
    (rows, cols, coeffs), n = cond._probe_set_map(name, m)
    assert n == len(row.words(m))
    got = rows, kernel._moment_map(m)[1][cols], coeffs
    want = form_entries_reference(word_probes(row.words(m), m), row.mode, m)
    for g, w in zip(canonical_entries(*got), canonical_entries(*want)):
        assert g.dtype == w.dtype and np.array_equal(g, w), name


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_word_probes_equal_generator_products(m):
    # each table row's term arrays, built in one pass per word length,
    # against the plain product chain of the same generators (`multiply`),
    # one word at a time: one term per word in the word's row, the same
    # monomial and sign, and no row for a word whose product vanishes,
    # which is a word that repeats a generator
    for name, row in CONDITIONS.items():
        words = row.words(m)
        assert all(type(g) is int for word in words for g in word), name
        rows, index, coeffs = cond._word_terms(words, m)
        want_rows, want_index, want_coeffs = [], [], []
        for k, (word, probe) in enumerate(zip(words, word_probes(words, m), strict=True)):
            probe_index, probe_coeffs = probe.arrays()
            assert len(probe_index) == (len(set(word)) == len(word)), (name, word)
            want_rows += [k] * len(probe_index)
            want_index += probe_index.tolist()
            want_coeffs += probe_coeffs.tolist()
        assert rows.dtype == index.dtype == np.intp and coeffs.dtype == complex, name
        assert rows.tolist() == want_rows, (name, m)
        assert index.tolist() == want_index, (name, m)
        assert coeffs.tolist() == want_coeffs, (name, m)
        assert set(np.abs(coeffs).tolist()) <= {1.0}, (name, m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_probe_set_maps_equal_element_reference(m):
    # the builder runs the star-product kernel on the probes' arrays; the
    # reference walks the monomial pairs with the scalar product
    for name in CONDITIONS:
        _assert_form_map_equals_scalar_builder(name, m)


@pytest.mark.parametrize("m", [7, 8])
def test_third_order_form_maps_equal_scalar_builder_past_the_star_cap(m):
    try:
        for name in ("T1", "T2"):
            _assert_form_map_equals_scalar_builder(name, m)
    finally:
        _star_monomials_terms.cache_clear()  # about 10^5 entries at m = 8


class TestFuzz:
    def test_as_dict_equals_the_record_fields(self):
        # written out field by field, in field order, then the derived all_pass
        for sector in (None, 2):
            summary = cond.fuzz_conditions(3, 2, seed=5, sector=sector)
            want = {**summary._asdict(), "all_pass": summary.all_pass}
            assert json.dumps(summary.as_dict(), indent=2) == json.dumps(want, indent=2)

    def test_deterministic_summary(self):
        a = cond.fuzz_conditions(2, 6, seed=5)
        b = cond.fuzz_conditions(2, 6, seed=5)
        assert a == b

    def test_all_pass_small(self):
        for m, trials in ((3, 10), (6, 1)):
            summary = cond.fuzz_conditions(m, trials, seed=1)
            assert summary.all_pass
            assert summary.pdm_max_dev < 1e-10

    def test_sector_exercises_contraction(self):
        for m, trials, sector in ((4, 4, 2), (6, 2, 3)):
            summary = cond.fuzz_conditions(m, trials, seed=2, sector=sector)
            assert summary.all_pass
            assert summary.contraction_max_dev < 1e-10

    def test_corrupted_gamma2_reports_failure(self):
        _, kappa, gamma, Gamma = genuine(3, 71)
        bad = Gamma - 0.2 * np.eye(9)
        reports = [cond.check_P(gamma, bad), cond.check_Q(gamma, bad), cond.check_G(gamma, bad)]
        assert any(not r.passed for r in reports)

    @pytest.mark.parametrize("m, seed", [(7, 17), (8, 18)])
    def test_all_pass_past_the_star_cap(self, m, seed):
        # the sparse oracle and the uncapped table maps reach the Fock cap
        summary = cond.fuzz_conditions(m, 1, seed=seed)
        assert summary.all_pass, summary
        assert summary.pdm_max_dev <= 1e-12
        assert set(summary.worst_margins) == {"first-order", *CONDITIONS}

    def test_summary_same_with_dict_built_density(self, monkeypatch):
        # from_operator as a Monomial dict under the same cut: the m = 8
        # summary does not depend on how the element holds its terms
        want = cond.fuzz_conditions(8, 1, seed=18)

        def dict_built(op):
            m = op.shape[0].bit_length() - 1
            coeffs = _coo_apply(*fock._element_map(m), np.asarray(op, complex).ravel(), 4 ** m)
            size = np.abs(coeffs)
            idx = np.flatnonzero(size > 1e-13 * size.max())
            return GrassmannElement(m, {Monomial(k >> m, k & ((1 << m) - 1)): c
                                        for k, c in zip(idx.tolist(), coeffs[idx].tolist())})

        monkeypatch.setattr(fock, "from_operator", dict_built)
        assert cond.fuzz_conditions(8, 1, seed=18).as_dict() == want.as_dict()

    def test_caps_and_trials_validated(self):
        with pytest.raises(ValueError, match="cap 8"):
            cond.fuzz_conditions(9, 3, seed=0)
        with pytest.raises(ValueError, match="trials"):
            cond.fuzz_conditions(2, 0, seed=0)
