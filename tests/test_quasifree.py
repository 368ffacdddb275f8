"""Quasifree construction, Wick pairing sums, and factorization checks."""

import numpy as np
import pytest

from grdm import conditions as cond
from grdm import fock, quasifree as qf
from grdm.algebra import (
    Monomial,
    change_generators,
    max_coeff_difference,
    moment_rows,
    monomial_element,
    psibar,
    star,
    trace_integral,
    unit,
)
from _reference import canonical_combine, word_product_entries_reference
from conftest import random_unitary


def random_gamma(rng, m, lo=0.05, hi=0.95):
    v = random_unitary(rng, m)
    lam = rng.uniform(lo, hi, m)
    return v @ np.diag(lam) @ v.conj().T


class TestBuild:
    def test_maximally_mixed(self):
        spec, kappa = qf.build_quasifree(0.5 * np.eye(2))
        want = fock.from_operator(np.eye(4) / 4)
        assert max_coeff_difference(kappa, want) < 1e-14
        assert np.allclose(spec.qs, 0.0)

    def test_pdm_recovery_random(self, rng):
        for m in (2, 3, 4):
            for _ in range(6):
                gamma = random_gamma(rng, m)
                _, kappa = qf.build_quasifree(gamma)
                assert np.max(np.abs(cond.pdm1_from_density(kappa) - gamma)) < 1e-9

    def test_normalized(self, rng):
        gamma = random_gamma(rng, 3)
        _, kappa = qf.build_quasifree(gamma)
        assert abs(trace_integral(kappa) - 1.0) < 1e-12

    def test_boundary_slater_projector(self):
        spec, kappa = qf.build_quasifree(np.diag([1.0, 0.0]))
        rho = fock.to_operator(kappa)
        state = fock.slater_state(np.eye(2)[:, :1], 2)
        assert np.max(np.abs(rho - np.outer(state, state.conj()))) < 1e-12
        assert spec.boundary_modes().all()

    def test_rotated_boundary_projector(self, rng):
        m = 3
        v = random_unitary(rng, m)
        gamma = v[:, :2] @ v[:, :2].conj().T  # rank-2 projector
        _, kappa = qf.build_quasifree(gamma)
        rho = fock.to_operator(kappa)
        state = fock.slater_state(v[:, :2], m)
        assert np.max(np.abs(rho - np.outer(state, state.conj()))) < 1e-11

    def test_oracle_spectrum_products(self, rng):
        m = 3
        lam = np.array([0.25, 0.5, 0.9])
        gamma = random_gamma(rng, m)
        v = np.linalg.eigh(gamma)[1]
        gamma = v @ np.diag(lam) @ v.conj().T
        _, kappa = qf.build_quasifree(gamma)
        rho = fock.to_operator(kappa)
        want = sorted(
            np.prod([l if (n >> i) & 1 else 1.0 - l for i, l in enumerate(lam)])
            for n in range(1 << m)
        )
        got = np.sort(np.linalg.eigvalsh(rho))
        assert np.max(np.abs(got - np.array(want))) < 1e-12

    def test_partition_function_product(self):
        # unnormalized mode-factor product has trace prod_i (1 + e^{-q_i})
        m = 3
        lam = np.array([0.3, 0.3, 0.6])
        qs = np.log((1 - lam) / lam)
        el = unit(m)
        for i in range(m):
            r = float(np.exp(-qs[i])) - 1.0
            el = star(el, unit(m) + r * monomial_element(Monomial(1 << i, 1 << i), m))
        z = trace_integral(el)
        assert z.real == pytest.approx(np.prod(1 + np.exp(-qs)), rel=1e-12)
        spec, kappa = qf.build_quasifree(np.diag(lam).astype(complex))
        assert np.max(np.abs(cond.pdm1_from_density(kappa) - np.diag(lam))) < 1e-9

    def test_spectrum_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="spectrum"):
            qf.build_quasifree(np.diag([1.2, 0.0]))
        with pytest.raises(ValueError, match="Hermitian"):
            qf.build_quasifree(np.array([[0.5, 0.4], [0.1, 0.5]]))

    def test_rotation_commutes_with_construction(self, rng):
        m = 3
        gamma = random_gamma(rng, m)
        v = random_unitary(rng, m)
        _, kappa_rot = qf.build_quasifree(v @ gamma @ v.conj().T)
        g_direct = cond.pdm1_from_density(kappa_rot)
        _, kappa = qf.build_quasifree(gamma)
        g_base = cond.pdm1_from_density(kappa)
        assert np.max(np.abs(g_direct - v @ g_base @ v.conj().T)) < 1e-9


class TestWick:
    def test_two_point_values(self):
        m = 3
        lam = np.array([0.2, 0.5, 0.7])
        spec, kappa = qf.quasifree_from_lambdas(lam, m)
        for i in range(1, m + 1):
            # <pbar_i star p_i> = lambda_i, computed both ways
            word = [(i, True), (i, False)]
            assert qf.wick_expectation(spec, word) == pytest.approx(lam[i - 1])
            assert qf.star_word_expectation(kappa, word) == pytest.approx(lam[i - 1])
            rev = [(i, False), (i, True)]
            assert qf.wick_expectation(spec, rev) == pytest.approx(1 - lam[i - 1])

    def test_four_point_occupation_product(self):
        m = 2
        lam = np.array([0.3, 0.8])
        spec, kappa = qf.quasifree_from_lambdas(lam, m)
        word = [(1, True), (1, False), (2, True), (2, False)]
        want = lam[0] * lam[1]
        assert qf.wick_expectation(spec, word) == pytest.approx(want)
        assert qf.star_word_expectation(kappa, word) == pytest.approx(want)

    def test_odd_words_vanish(self, rng):
        m = 3
        spec, kappa = qf.quasifree_from_lambdas(rng.uniform(0.1, 0.9, m), m)
        for word in qf.generator_words(m, 3):
            if len(word) % 2:
                assert qf.wick_expectation(spec, word) == 0
                assert abs(qf.star_word_expectation(kappa, list(word))) < 1e-12

    def test_number_nonconserving_pairs_vanish(self):
        spec, _ = qf.quasifree_from_lambdas([0.4, 0.6], 2)
        assert qf.wick_expectation(spec, [(1, True), (2, True)]) == 0
        assert qf.wick_expectation(spec, [(1, False), (2, False)]) == 0

    def test_index_validation(self):
        spec, _ = qf.quasifree_from_lambdas([0.4, 0.6], 2)
        with pytest.raises(ValueError, match="outside"):
            qf.wick_expectation(spec, [(3, True), (3, False)])

    def test_verify_quasifree_small_dev(self, rng):
        for m, points in ((3, 6), (5, 4), (6, 4)):
            gamma = random_gamma(rng, m)
            spec, kappa = qf.build_quasifree(gamma)
            assert qf.verify_quasifree(kappa, spec, max_points=points) < 1e-9

    def test_generic_density_violates_wick(self):
        for m, seed in ((3, 77), (5, 78)):
            rho = fock.random_density(m, seed)
            kappa = fock.from_operator(rho)
            gamma = cond.pdm1_from_density(kappa)
            lam, v = np.linalg.eigh(gamma)
            spec = qf.QuasifreeSpec(m, v, np.clip(lam.real, 0, 1),
                                    np.log((1 - lam.real) / lam.real))
            assert qf.verify_quasifree(kappa, spec, max_points=4) > 1e-3

    def test_max_points_below_one_rejected(self):
        spec, kappa = qf.quasifree_from_lambdas([0.4, 0.6], 2)
        for points in (0, -3):
            with pytest.raises(ValueError, match="max_points"):
                qf.verify_quasifree(kappa, spec, max_points=points)

    def test_word_map_cap_named(self):
        # build_quasifree's cap is pinned through `grdm quasifree` (test_cli)
        with pytest.raises(ValueError, match="cap 8"):
            qf.words_checked(9, 2)

    def test_density_and_spec_m_must_agree(self, rng):
        spec, _ = qf.build_quasifree(random_gamma(rng, 3))
        _, kappa = qf.build_quasifree(random_gamma(rng, 4))
        with pytest.raises(ValueError, match="m = 4.*m = 3"):
            qf.verify_quasifree(kappa, spec, max_points=2)

    def test_batched_wick_matches_per_word_reference(self):
        m = 3
        lam = np.array([0.15, 0.5, 0.8])
        spec = qf.QuasifreeSpec(m, np.eye(m, dtype=complex), lam, np.log((1 - lam) / lam))
        want = np.array([qf.wick_expectation(spec, w) for w in qf.generator_words(m, 6)])
        got = qf._wick_word_values(spec, 6)
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_wick_pdms_match_both_realizations(self, rng):
        for m in (4, 5, 6):
            gamma = random_gamma(rng, m)
            _, kappa = qf.build_quasifree(gamma)
            gamma_w, Gamma_w = qf.wick_pdms(gamma)
            assert np.array_equal(gamma_w, gamma)
            assert np.max(np.abs(cond.pdm2_from_density(kappa) - Gamma_w)) <= 1e-12
            if m == 4:
                _, Gamma_o = fock.pdms_from_rho(fock.to_operator(kappa))
                assert np.max(np.abs(Gamma_o - Gamma_w)) <= 1e-12

    @pytest.mark.parametrize("m", [7, 8])
    def test_past_the_fock_cap(self, m):
        # past the star-product cap the Wick closed forms and the sparse Fock
        # oracle are the second and third realizations
        rng = np.random.default_rng(700 + m)
        gamma = random_gamma(rng, m)
        spec, kappa = qf.build_quasifree(gamma)
        assert np.max(np.abs(cond.pdm1_from_density(kappa) - gamma)) <= 1e-9
        assert qf.verify_quasifree(kappa, spec, max_points=4) <= 1e-9
        Gamma_w = qf.wick_pdms(gamma)[1]
        assert np.max(np.abs(cond.pdm2_from_density(kappa) - Gamma_w)) <= 1e-12
        _, Gamma_o = fock.pdms_from_rho(fock.to_operator(kappa))
        assert np.max(np.abs(Gamma_o - Gamma_w)) <= 1e-12

    def test_words_checked_counts_generator_words(self):
        for m, points in ((2, 4), (3, 6), (4, 4), (2, 9)):
            assert qf.words_checked(m, points) == sum(1 for _ in qf.generator_words(m, points))

    def test_max_points_above_2m_is_clamped(self):
        # no word of distinct generators is longer than 2m: at m = 1 nothing
        # past k = 2 may be built, neither a word table nor a matching
        spec, kappa = qf.quasifree_from_lambdas([0.3], 1)
        for cached in (qf._matchings, qf._word_table, qf._star_word_map):
            cached.cache_clear()
        assert qf.verify_quasifree(kappa, spec, max_points=8) == qf.verify_quasifree(kappa, spec, 2)
        assert qf.words_checked(1, 8) == qf.words_checked(1, 2) == 4
        assert qf._matchings.cache_info().currsize == 2  # k = 0 and 2
        for cached in (qf._word_table, qf._star_word_map):
            assert cached.cache_info().currsize == 1
        assert [table.shape[1] for _, table in qf._word_table(1, 2)] == [2]
        assert qf._word_table.cache_info().hits == 2

    @pytest.mark.parametrize("m, points", [(2, 4), (3, 6), (4, 4)])
    def test_word_map_matches_per_word_reference(self, rng, m, points):
        # the generic density is no quasifree state, so a map that only
        # reproduced the Wick values would miss its reference values
        _, quasi = qf.build_quasifree(random_gamma(rng, m))
        generic = fock.from_operator(fock.random_density(m, 40 + m))
        words = list(qf.generator_words(m, points))
        for kappa in (quasi, generic):
            got = qf._star_word_map(m, points).apply(kappa.to_vector())
            assert got.shape == (len(words),)
            want = np.array([qf.star_word_expectation(kappa, list(w)) for w in words])
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("m, points", [(2, 4), (3, 4), (4, 4), (3, 6)])
    def test_word_map_equals_element_reference(self, m, points):
        # the builder runs the star product on term maps; the reference builds
        # one element per product with the public star.  Each map numbers its
        # moments by first appearance, which its moment rows confirm.
        got = qf._star_word_map(m, points)
        want_entries = list(word_product_entries_reference(m, points))
        want = cond._linear_map(want_entries, got.shape, m)
        canonical = []
        for lin, entries in ((got, qf._word_product_entries(m, points)), (want, want_entries)):
            monomials = list(dict.fromkeys(t for _, t, _ in entries))
            assert all(np.array_equal(a, b) for a, b in zip(lin.moments, moment_rows(monomials, m)))
            canonical.append(canonical_combine(lin, monomials, m))
        for g, w in zip(*canonical):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_pull_through_identity(self):
        m = 3
        lam = np.array([0.2, 0.5, 0.7])
        spec, kappa = qf.quasifree_from_lambdas(lam, m)
        kd = change_generators(kappa, spec.u)
        for i in range(1, m + 1):
            lhs = star(psibar(i, m), kd)
            rhs = float(np.exp(spec.qs[i - 1])) * star(kd, psibar(i, m))
            assert max_coeff_difference(lhs, rhs) < 1e-12

    def test_pdm2_diagonal_is_occupation_product(self):
        m = 3
        lam = np.array([0.15, 0.4, 0.85])
        spec, kappa = qf.quasifree_from_lambdas(lam, m)
        Gamma = cond.pdm2_from_density(kappa)
        for k in range(m):
            for l in range(m):
                if k == l:
                    continue
                want = lam[k] * lam[l]
                assert Gamma[k * m + l, k * m + l] == pytest.approx(want, abs=1e-10)


class TestModeProduct:
    def test_all_zero(self):
        assert qf.mode_product_expansion([0.0, 0.0]).terms == {Monomial(0, 0): 1 + 0j}

    def test_single_mode(self):
        r = 0.7
        el = qf.mode_product_expansion([r])
        assert el.terms == {Monomial(0, 0): 1 + 0j, Monomial(1, 1): pytest.approx(r)}

    def test_matches_star_fold(self, rng):
        for m in (1, 2, 3, 4):
            r = rng.uniform(-1.5, 1.5, m)
            for occupied in (np.zeros(m, bool), rng.random(m) < 0.5, np.ones(m, bool)):
                closed = qf.mode_product_expansion(r, occupied=occupied)
                folded = unit(m)
                for i in range(m):
                    nbar_n = monomial_element(Monomial(1 << i, 1 << i), m)
                    factor = nbar_n if occupied[i] else unit(m) + r[i] * nbar_n
                    folded = star(folded, factor)
                assert max_coeff_difference(closed, folded) < 1e-12
