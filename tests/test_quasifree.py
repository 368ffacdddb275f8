"""Quasifree construction, Wick pairing sums, and factorization checks."""

import numpy as np
import pytest

from grdm import conditions as cond
from grdm import fock, quasifree as qf
from grdm.algebra import (
    psibar,
    star,
    trace_integral,
    unit,
)
from grdm.kernel import GrassmannElement, Monomial, prune
from grdm.limits import BOUNDARY_TOL, _coo_apply
from _reference import (build_quasifree_reference, canonical_entries, change_generators,
                        mode_product_expansion, moment_rows_reference, quasifree_from_lambdas,
                        slater_state, star_word_expectation, wick_expectation,
                        word_product_entries_reference)
from conftest import random_unitary


def random_gamma(rng, m, lo=0.05, hi=0.95):
    v = random_unitary(rng, m)
    lam = rng.uniform(lo, hi, m)
    return v @ np.diag(lam) @ v.conj().T


def _spectra(rng, m):
    """Named test spectra: random, exact 0 / 1 / 0.5, within BOUNDARY_TOL of 0 and 1, degenerate."""
    lo, hi = 0.3 * BOUNDARY_TOL, 1.0 - 0.3 * BOUNDARY_TOL
    yield "random", rng.uniform(0.0, 1.0, m)
    yield "exact", rng.choice([0.0, 1.0, 0.5], m)
    yield "near-boundary", rng.choice([lo, hi, -lo, 2.0 - hi, 0.3], m)
    degenerate = rng.uniform(0.0, 1.0, m)
    degenerate[: (m + 1) // 2] = degenerate[0]
    yield "degenerate", degenerate


class TestBuild:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_closed_form_equals_rotated_mode_product(self, m):
        # the closed-form coefficients against the normalized eigenbasis mode
        # product rotated by change_generators: same spec, same terms once the
        # reference's roundoff is pruned as the build prunes its own
        rng = np.random.default_rng(900 + m)
        for name, lam in _spectra(rng, m):
            v = random_unitary(rng, m)
            gamma = v @ np.diag(lam) @ v.conj().T
            spec, kappa = qf.build_quasifree(gamma)
            (u, lambdas), want = build_quasifree_reference(gamma)
            assert np.array_equal(spec.u, u) and np.array_equal(spec.lambdas, lambdas)
            scale = 1.0 + want.norm_max()
            assert (kappa - want).norm_max() <= 1e-14 * scale, name
            assert np.array_equal(kappa.arrays()[0], prune(want).arrays()[0]), name

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_fully_degenerate_spectrum(self, m):
        # gamma = c 1 in a rotated basis: kappa is the same product in every
        # basis, so only its 2**m diagonal terms (bar == unbar) stand above
        # roundoff, and the build keeps exactly those; the reference keeps
        # the roundoff of its sums
        rng = np.random.default_rng(950 + m)
        v = random_unitary(rng, m)
        gamma = v @ (0.4 * np.eye(m)) @ v.conj().T
        spec, kappa = qf.build_quasifree(gamma)
        want = build_quasifree_reference(gamma)[1]
        assert (kappa - want).norm_max() <= 1e-14 * (1.0 + want.norm_max())
        index = kappa.arrays()[0]
        assert len(index) == 1 << m
        assert np.array_equal(index >> m, index & ((1 << m) - 1))
        assert len(want.arrays()[0]) > 1 << m

    def test_generic_spectrum_keeps_every_number_conserving_term(self, rng):
        # the prune drops only roundoff: with the spectrum inside (0.05, 0.95)
        # every |bar| = |unbar| coefficient stays, 70 at m = 4
        for _ in range(50):
            u = random_unitary(rng, 4)
            gamma = (u * rng.uniform(0.05, 0.95, 4)) @ u.conj().T
            index = qf.build_quasifree(gamma)[1].arrays()[0]
            assert len(index) == 70

    def test_maximally_mixed(self):
        spec, kappa = qf.build_quasifree(0.5 * np.eye(2))
        want = fock.from_operator(np.eye(4) / 4)
        assert (kappa - want).norm_max() < 1e-14
        assert np.allclose(spec.lambdas, 0.5)

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
        state = slater_state(np.eye(2)[:, :1], 2)
        assert np.max(np.abs(rho - np.outer(state, state.conj()))) < 1e-12

    def test_rotated_boundary_projector(self, rng):
        m = 3
        v = random_unitary(rng, m)
        gamma = v[:, :2] @ v[:, :2].conj().T  # rank-2 projector
        _, kappa = qf.build_quasifree(gamma)
        rho = fock.to_operator(kappa)
        state = slater_state(v[:, :2], m)
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
            el = star(el, unit(m) + r * GrassmannElement(m, {Monomial(1 << i, 1 << i): 1 + 0j}))
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
        spec, kappa = quasifree_from_lambdas(lam, m)
        for i in range(1, m + 1):
            # <pbar_i star p_i> = lambda_i, computed both ways
            word = [(i, True), (i, False)]
            assert wick_expectation(spec, word) == pytest.approx(lam[i - 1])
            assert star_word_expectation(kappa, word) == pytest.approx(lam[i - 1])
            rev = [(i, False), (i, True)]
            assert wick_expectation(spec, rev) == pytest.approx(1 - lam[i - 1])

    def test_four_point_occupation_product(self):
        m = 2
        lam = np.array([0.3, 0.8])
        spec, kappa = quasifree_from_lambdas(lam, m)
        word = [(1, True), (1, False), (2, True), (2, False)]
        want = lam[0] * lam[1]
        assert wick_expectation(spec, word) == pytest.approx(want)
        assert star_word_expectation(kappa, word) == pytest.approx(want)

    def test_odd_words_vanish(self, rng):
        m = 3
        spec, kappa = quasifree_from_lambdas(rng.uniform(0.1, 0.9, m), m)
        for word in qf.generator_words(m, 3):
            if len(word) % 2:
                assert wick_expectation(spec, word) == 0
                assert abs(star_word_expectation(kappa, list(word))) < 1e-12

    def test_number_nonconserving_pairs_vanish(self):
        spec, _ = quasifree_from_lambdas([0.4, 0.6], 2)
        assert wick_expectation(spec, [(1, True), (2, True)]) == 0
        assert wick_expectation(spec, [(1, False), (2, False)]) == 0

    def test_index_validation(self):
        spec, _ = quasifree_from_lambdas([0.4, 0.6], 2)
        with pytest.raises(ValueError, match="outside"):
            wick_expectation(spec, [(3, True), (3, False)])

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
            spec = qf.QuasifreeSpec(m, v, np.clip(lam.real, 0, 1))
            assert qf.verify_quasifree(kappa, spec, max_points=4) > 1e-3

    def test_max_points_below_one_rejected(self):
        spec, kappa = quasifree_from_lambdas([0.4, 0.6], 2)
        for points in (0, -3):
            with pytest.raises(ValueError, match="max_points"):
                qf.verify_quasifree(kappa, spec, max_points=points)

    def test_word_map_cap_named(self, monkeypatch):
        # build_quasifree's cap is pinned through `grdm quasifree` (test_cli)
        with pytest.raises(ValueError, match="cap 8"):
            qf.words_checked(9, 2)
        # m = 8 with 6 points has 6,337,216 words, about 0.5 GB of map: the
        # word cap refuses it on every path before any map entry is built
        built = []
        monkeypatch.setattr(qf, "_word_product_entries", lambda *args: built.append(args))
        cached = qf._star_word_map.cache_info().currsize
        spec, kappa = quasifree_from_lambdas([0.5] * 8, 8)
        for call in (lambda: qf.words_checked(8, 6), lambda: qf._star_word_map(8, 6),
                     lambda: qf.verify_quasifree(kappa, spec, max_points=6)):
            with pytest.raises(ValueError, match="max_points 6 at m = 8 gives 6,337,216 generator "
                                                 "words, past the cap of 1,000,000"):
                call()
        assert built == [] and qf._star_word_map.cache_info().currsize == cached

    def test_density_and_spec_m_must_agree(self, rng):
        spec, _ = qf.build_quasifree(random_gamma(rng, 3))
        _, kappa = qf.build_quasifree(random_gamma(rng, 4))
        with pytest.raises(ValueError, match="m = 4.*m = 3"):
            qf.verify_quasifree(kappa, spec, max_points=2)

    def test_batched_wick_matches_per_word_reference(self):
        m = 3
        lam = np.array([0.15, 0.5, 0.8])
        spec = qf.QuasifreeSpec(m, np.eye(m, dtype=complex), lam)
        want = np.array([wick_expectation(spec, w) for w in qf.generator_words(m, 6)])
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
        spec, kappa = quasifree_from_lambdas([0.3], 1)
        for cached in (qf._matchings, qf._star_word_map):
            cached.cache_clear()
        first = qf.verify_quasifree(kappa, spec, max_points=8)
        hits = qf._star_word_map.cache_info().hits
        assert first == qf.verify_quasifree(kappa, spec, 2)
        assert qf._star_word_map.cache_info().hits > hits
        assert qf._star_word_map.cache_info().misses == 1
        assert qf.words_checked(1, 8) == qf.words_checked(1, 2) == 4
        assert qf._matchings.cache_info().currsize == 2  # k = 0 and 2
        assert qf._star_word_map.cache_info().currsize == 1
        # one even level, k = 2: its one position pair over the 2 words
        assert [(k, pairs.shape) for _, k, pairs in qf._star_word_map(1, 2)[1]] == [(2, (1, 2))]

    @pytest.mark.parametrize("m, points", [(2, 4), (3, 6), (4, 4)])
    def test_word_map_matches_per_word_reference(self, rng, m, points):
        # the generic density is no quasifree state, so a map that only
        # reproduced the Wick values would miss its reference values
        _, quasi = qf.build_quasifree(random_gamma(rng, m))
        generic = fock.from_operator(fock.random_density(m, 40 + m))
        words = list(qf.generator_words(m, points))
        ((rows, monomials), (combine, n_words)), _ = qf._star_word_map(m, points)
        for kappa in (quasi, generic):
            got = _coo_apply(*combine, _coo_apply(*rows, kappa.to_vector(), len(monomials)), n_words)
            assert got.shape == (len(words),)
            want = np.array([star_word_expectation(kappa, list(w)) for w in words])
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("m, points", [(2, 4), (3, 4), (4, 4), (3, 6), (5, 4)])
    def test_word_map_equals_element_reference(self, m, points):
        # the builder runs the star-product kernel level by level; the
        # reference builds each product from its prefix with the scalar
        # product.  The map's moments are the distinct monomials the
        # reference's entries name, ascending, and their rows equal the scalar
        # pair-trace loop's.
        ((moments, ts), ((rows, cols, coeffs), _)), _ = qf._star_word_map(m, points)
        want = word_product_entries_reference(m, points)
        assert np.array_equal(ts, np.unique(want[1]))
        monomials = [Monomial(t >> m, t & ((1 << m) - 1)) for t in ts.tolist()]
        for g, w in zip(moments, moment_rows_reference(monomials, m)):
            assert np.array_equal(g, w)
        for g, w in zip(canonical_entries(rows, ts[cols], coeffs), canonical_entries(*want)):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_pull_through_identity(self):
        m = 3
        lam = np.array([0.2, 0.5, 0.7])
        spec, kappa = quasifree_from_lambdas(lam, m)
        kd = change_generators(kappa, spec.u)
        for i in range(1, m + 1):
            lhs = star(psibar(i, m), kd)
            lam_i = spec.lambdas[i - 1]
            rhs = float((1 - lam_i) / lam_i) * star(kd, psibar(i, m))
            assert (lhs - rhs).norm_max() < 1e-12

    def test_pdm2_diagonal_is_occupation_product(self):
        m = 3
        lam = np.array([0.15, 0.4, 0.85])
        spec, kappa = quasifree_from_lambdas(lam, m)
        Gamma = cond.pdm2_from_density(kappa)
        for k in range(m):
            for l in range(m):
                if k == l:
                    continue
                want = lam[k] * lam[l]
                assert Gamma[k * m + l, k * m + l] == pytest.approx(want, abs=1e-10)


class TestModeProduct:
    def test_all_zero(self):
        assert mode_product_expansion([0.0, 0.0]).terms == {Monomial(0, 0): 1 + 0j}

    def test_single_mode(self):
        r = 0.7
        el = mode_product_expansion([r])
        assert el.terms == {Monomial(0, 0): 1 + 0j, Monomial(1, 1): pytest.approx(r)}

    def test_matches_star_fold(self, rng):
        for m in (1, 2, 3, 4):
            r = rng.uniform(-1.5, 1.5, m)
            for occupied in (np.zeros(m, bool), rng.random(m) < 0.5, np.ones(m, bool)):
                closed = mode_product_expansion(r, occupied=occupied)
                folded = unit(m)
                for i in range(m):
                    nbar_n = GrassmannElement(m, {Monomial(1 << i, 1 << i): 1 + 0j})
                    factor = nbar_n if occupied[i] else unit(m) + r[i] * nbar_n
                    folded = star(folded, factor)
                assert (closed - folded).norm_max() < 1e-12
