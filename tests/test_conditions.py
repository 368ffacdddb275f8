"""Representability conditions: dual-path checks and pdm extraction."""

from itertools import combinations

import numpy as np
import pytest

from grdm import conditions as cond
from grdm import fock, quasifree
from grdm.algebra import (
    GrassmannElement,
    Monomial,
    _coo_apply,
    involution,
    psi,
    psibar,
    star,
    star_trace,
    trace_integral,
    unit,
)
from _reference import canonical_combine, form_entries_reference
from conftest import rand_element, random_unitary


def genuine(m, seed, sector=None):
    rho = fock.random_density(m, seed, sector=sector)
    kappa = fock.from_operator(rho)
    gamma, Gamma = fock.pdms_from_rho(rho)
    return rho, kappa, gamma, Gamma


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


def reference_pairs(m, seed, rng):
    """A P-shifted genuine pair, then a random Hermitian pair whose Gamma is not pair-antisymmetric."""
    _, _, gamma, Gamma = genuine(m, seed)
    return [(gamma, Gamma - 0.05 * np.eye(m * m)), (rand_hermitian(rng, m), rand_hermitian(rng, m * m))]


class TestPdmExtraction:
    def test_vacuum_density(self):
        vac = np.zeros((8, 8), dtype=complex)
        vac[0, 0] = 1.0
        kappa = fock.from_operator(vac)
        assert not cond.pdm1_from_density(kappa).any()
        assert not cond.pdm2_from_density(kappa).any()

    def test_single_mode_occupied(self):
        m = 3
        state = fock.slater_state(np.eye(m)[:, :1], m)
        kappa = fock.from_operator(np.outer(state, state.conj()))
        gamma = cond.pdm1_from_density(kappa)
        assert np.allclose(gamma, np.diag([1.0, 0, 0]), atol=1e-12)

    def test_two_mode_slater_factorization(self):
        m = 2
        state = fock.slater_state(np.eye(2), m)
        kappa = fock.from_operator(np.outer(state, state.conj()))
        gamma = cond.pdm1_from_density(kappa)
        Gamma = cond.pdm2_from_density(kappa)
        assert np.allclose(gamma, np.eye(2), atol=1e-12)
        ex = fock.exchange_matrix(m)
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
            rows, index = cond._moment_map(m)
            terms = dict(rand_element(rng, m, nterms=12).terms)
            terms.update({Monomial(bar, bar): complex(rng.standard_normal(), 1.0)
                          for bar in range(0, 1 << m, 3)})
            a = GrassmannElement(m, terms)
            moment0 = _coo_apply(*rows, a.to_vector(), len(index))[0]
            assert abs(moment0 - trace_integral(a)) <= 1e-12 * (1 << m)

    def test_table_maps_share_one_moment_map(self):
        for m in (2, 3, 5):
            rows, index = cond._moment_map(m)
            assert len(index) == 1 + m * m + (m * (m - 1) // 2) ** 2
            for name in cond.CONDITIONS:
                table_map = cond._probe_set_map(name, m)
                assert table_map.moments is rows and table_map.n_moments == len(index)

    def test_fuzz_trial_converts_density_once(self, monkeypatch):
        calls = []
        to_vector = GrassmannElement.to_vector

        def counted(self):
            calls.append(self.m)
            return to_vector(self)

        monkeypatch.setattr(GrassmannElement, "to_vector", counted)
        cond.fuzz_conditions(5, 1, 3)
        assert calls == [5]


class TestQuadraticForm:
    def test_unit_probe(self):
        _, kappa, _, _ = genuine(2, 7)
        F = cond.quadratic_form_matrix(kappa, [unit(2)])
        assert np.allclose(F, [[1.0]], atol=1e-12)

    def test_psi_probes_reproduce_gamma_bound(self):
        # <p_k* star p_l> = <pbar_k star p_l> = gamma[l, k]: the gamma >= 0 bound
        m = 3
        _, kappa, gamma, _ = genuine(m, 8)
        probes = [psi(k, m) for k in range(1, m + 1)]
        F = cond.quadratic_form_matrix(kappa, probes)
        assert np.max(np.abs(F - gamma.T)) < 1e-10

    def test_psibar_probes_reproduce_upper_bound(self):
        # <p_k star pbar_l> = delta_kl - gamma[k, l]: the gamma <= 1 bound
        m = 3
        _, kappa, gamma, _ = genuine(m, 9)
        probes = [psibar(k, m) for k in range(1, m + 1)]
        F = cond.quadratic_form_matrix(kappa, probes)
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
                F = cond.quadratic_form_matrix(kappa, probes, mode)
                want = star_route(kappa, probes, mode)
                assert np.max(np.abs(F - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_empty_probes_rejected(self):
        _, kappa, _, _ = genuine(2, 7)
        with pytest.raises(ValueError, match="empty"):
            cond.quadratic_form_matrix(kappa, [])

    def test_bad_mode_rejected(self):
        _, kappa, _, _ = genuine(2, 7)
        with pytest.raises(ValueError, match="mode"):
            cond.quadratic_form_matrix(kappa, [unit(2)], mode="weird")

    def test_arbitrary_probes_keep_star_cap(self):
        # the table maps build past STAR_CAP; arbitrary probes do not
        m = 7
        with pytest.raises(ValueError, match="cap 6"):
            cond.quadratic_form_matrix(2.0 ** -m * unit(m), [unit(m)])


class TestOrderN:
    def test_genuine_passes_order1_and_2(self):
        for m, seed in [(2, 11), (3, 12)]:
            _, kappa, _, _ = genuine(m, seed)
            for n in (1, 2):
                rep = cond.order_n_check(kappa, n)
                assert rep.passed, rep

    def test_indefinite_image_fails(self):
        # unit trace but not PSD on the Fock side
        m = 2
        op = np.diag([0.6, 0.7, -0.3, 0.0]).astype(complex)
        kappa = fock.from_operator(op)
        rep = cond.order_n_check(kappa, 2)
        assert not rep.passed and rep.margin < -0.01

    def test_higher_order_rejected(self):
        _, kappa, _, _ = genuine(2, 13)
        with pytest.raises(ValueError, match="order"):
            cond.order_n_check(kappa, 3)


class TestPQG:
    def test_genuine_passes_all(self):
        for m, seed in [(2, 21), (3, 22), (4, 23)]:
            _, kappa, gamma, Gamma = genuine(m, seed)
            for rep in cond.condition_battery(gamma, Gamma, kappa):
                assert rep.passed, rep

    def test_slater_passes_all(self, rng):
        m = 4
        orbitals = random_unitary(rng, m)[:, :2]
        state = fock.slater_state(orbitals, m)
        rho = np.outer(state, state.conj())
        kappa = fock.from_operator(rho)
        gamma, Gamma = fock.pdms_from_rho(rho)
        for rep in cond.condition_battery(gamma, Gamma, kappa):
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
        qmat = cond.q_condition_matrix(gamma, Gamma)
        ex = fock.exchange_matrix(m)
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
        mg = cond.g_condition_matrix(gamma, Gamma)
        vec_id = np.eye(m).reshape(-1)
        lhs = np.vdot(vec_id, mg @ vec_id)
        ex = fock.exchange_matrix(m)
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
            cond.check_T1(gamma, Gamma, np.ones((3, 3, 3)))

    def test_genuine_scalar_nonnegative(self, rng):
        _, _, gamma, Gamma = genuine(4, 52)
        for _ in range(20):
            T = rand_antisym3(rng, 4)
            scale = 1.0 + np.abs(T).max() ** 2
            assert cond.check_T1(gamma, Gamma, T) >= -1e-9 * scale

    def test_small_m_sentinel(self):
        _, kappa, _, _ = genuine(2, 53)
        rep = cond.check_T1_full(kappa)
        assert rep.passed and rep.margin == np.inf

    def test_scalar_matches_form_evaluation(self, rng):
        m = 4
        _, kappa, gamma, Gamma = genuine(m, 54)
        F = cond.quadratic_form_matrix(kappa, cond._t1_probe_elements(m), "anticommutator")
        triples = list(combinations(range(m), 3))
        for _ in range(15):
            T = rand_antisym3(rng, m)
            coords = np.array([6 * T[t] for t in triples])
            form_val = (np.vdot(coords, F @ coords) / 3).real
            scalar = cond.check_T1(gamma, Gamma, T)
            assert abs(scalar - form_val) <= 1e-9 * max(1.0, abs(scalar))

    def test_form_routes_agree(self):
        m = 4
        _, kappa, gamma, Gamma = genuine(m, 55)
        dens_route = cond.quadratic_form_matrix(kappa, cond._t1_probe_elements(m), "anticommutator")
        pdm_route = cond.t1_form_from_pdms(gamma, Gamma)
        assert np.max(np.abs(dens_route - pdm_route)) < 1e-10

    def test_full_report_passes_genuine(self):
        _, kappa, _, _ = genuine(4, 56)
        assert cond.check_T1_full(kappa).passed

    def test_batched_form_matches_bilinear_loop(self, rng):
        for m in range(1, 7):
            # the T1 form is empty below m = 3
            tensors = [cond._t1_unit_tensor(t, m) for t in combinations(range(m), 3)]
            for gamma, Gamma in reference_pairs(m, 57, rng):
                F = np.array([[3 * cond.t1_bilinear(ta, tb, gamma, Gamma) for tb in tensors]
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
            assert cond.check_T2_generalized(gamma, Gamma, T, a) >= -1e-9 * scale

    def test_scalar_matches_form_evaluation(self, rng):
        m = 4
        _, kappa, gamma, Gamma = genuine(m, 62)
        F = cond.quadratic_form_matrix(kappa, cond._t2_probe_elements(m), "anticommutator")
        pairs = list(combinations(range(m), 2))
        for _ in range(15):
            T = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            ta = (T - T.transpose(1, 0, 2)) / 2
            coords = np.array([2 * ta[i, j, k] for (i, j) in pairs for k in range(m)]
                              + list(a))
            form_val = np.vdot(coords, F @ coords).real
            scalar = cond.check_T2_generalized(gamma, Gamma, T, a)
            assert abs(scalar - form_val) <= 1e-9 * max(1.0, abs(scalar))

    def test_wrong_linear_index_order_disagrees(self, rng):
        # the rejected reading of the mixed gamma term: second summand with
        # slice index order [T_j^(A)]_{i q} instead of [T_j^(A)]_{q i}
        m = 4
        _, kappa, gamma, Gamma = genuine(m, 63)
        F = cond.quadratic_form_matrix(kappa, cond._t2_probe_elements(m), "anticommutator")
        pairs = list(combinations(range(m), 2))
        worst = 0.0
        for _ in range(10):
            T = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            ta = (T - T.transpose(1, 0, 2)) / 2
            coords = np.array([2 * ta[i, j, k] for (i, j) in pairs for k in range(m)]
                              + list(a))
            form_val = np.vdot(coords, F @ coords).real
            good = cond.check_T2_generalized(gamma, Gamma, T, a)
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
            full = cond.check_T2_generalized(gamma, Gamma, T, np.zeros(m))
            special = cond.t2a_value(gamma, Gamma, T)
            assert abs(full - special) <= 1e-9 * max(1.0, abs(full))

    def test_pure_linear_part_is_norm(self, rng):
        _, _, gamma, Gamma = genuine(3, 65)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        val = cond.check_T2_generalized(gamma, Gamma, np.zeros((3, 3, 3)), a)
        assert val == pytest.approx(float(np.vdot(a, a).real), abs=1e-12)

    def test_form_routes_agree(self):
        m = 3
        _, kappa, gamma, Gamma = genuine(m, 66)
        dens_route = cond.quadratic_form_matrix(kappa, cond._t2_probe_elements(m), "anticommutator")
        pdm_route = cond.t2_form_from_pdms(gamma, Gamma)
        assert np.max(np.abs(dens_route - pdm_route)) < 1e-10

    def test_batched_form_matches_bilinear_loop(self, rng):
        for m in range(1, 7):
            probes = cond._t2_probes(m)
            for gamma, Gamma in reference_pairs(m, 68, rng):
                F = np.array([[cond.t2_bilinear(Tx, ax, Ty, ay, gamma, Gamma) for Ty, ay in probes]
                              for Tx, ax in probes])
                want = (F + F.conj().T) / 2
                got = cond.t2_form_from_pdms(gamma, Gamma)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), m

    def test_shape_validation(self):
        _, _, gamma, Gamma = genuine(3, 67)
        with pytest.raises(ValueError, match="shape"):
            cond.check_T2_generalized(gamma, Gamma, np.zeros((2, 2, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            cond.check_T2_generalized(gamma, Gamma, np.zeros((3, 3, 3)), np.zeros(2))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_table_realizations_agree(m):
    # an empty form (T1 below m = 3) has margin inf on both sides; T2 at m = 1
    # is the 1 x 1 form of the linear probe, margin 1
    _, kappa, gamma, Gamma = genuine(m, 90 + m)
    for name in cond.CONDITIONS:
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
        for name, probes, closed, full in (
                ("T1", cond._t1_probe_elements(m), cond.t1_form_from_pdms, cond.check_T1_full),
                ("T2", cond._t2_probe_elements(m), cond.t2_form_from_pdms, cond.check_T2_full)):
            F = cond.quadratic_form_matrix(kappa, probes, "anticommutator")
            C = closed(gamma, Gamma)
            assert np.max(np.abs(F - C)) <= 1e-10, name
            rep = full(kappa)
            assert rep.passed, rep
            assert abs(rep.margin - cond.report_from_form(name, C, "closed-form").margin) <= 1e-8


@pytest.mark.parametrize("name, closed", [("T1", cond.t1_form_from_pdms),
                                          ("T2", cond.t2_form_from_pdms)])
def test_index_map_built_once_per_m(name, closed):
    cond._index_map.cache_clear()
    _, _, gamma, Gamma = genuine(4, 88)
    first = closed(gamma, Gamma)
    assert cond._index_map.cache_info().misses == 1
    assert np.array_equal(closed(gamma, Gamma), first)
    info = cond._index_map.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    (rows, src, coeff), n = cond._index_map(name, 4)
    assert n == len(first)
    for arr in (rows, src, coeff):
        assert not arr.flags.writeable


def test_index_maps_agree_with_grassmann_forms_at_m6():
    m = 6
    _, kappa, gamma, Gamma = genuine(m, 86)
    moments = cond._moments(kappa.to_vector(), m)
    for name in ("T1", "T2"):
        F = cond._probe_set_map(name, m).combine_moments(moments)
        C = cond.CONDITIONS[name].closed(gamma, Gamma)
        assert np.max(np.abs(F - C)) <= 1e-10, name
        form = cond.condition_form_report(kappa, name)
        closed = cond.closed_form_report(name, gamma, Gamma)
        assert form.passed and closed.passed
        assert abs(form.margin - closed.margin) <= 1e-8, name


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_probe_set_maps_equal_element_reference(m):
    # the builder runs the star product on term maps; the reference builds
    # one element per product with the public star and involution
    monomials = list(cond._moment_map(m)[1])
    for name, (_, probes, mode) in cond.CONDITIONS.items():
        got = cond._probe_set_map(name, m)
        want = cond._linear_map(form_entries_reference(probes(m), mode), got.shape, m, shared=True)
        assert got.moments is want.moments
        for g, w in zip(canonical_combine(got, monomials, m), canonical_combine(want, monomials, m)):
            assert g.dtype == w.dtype and np.array_equal(g, w), name


class TestFuzz:
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
        assert set(summary.worst_margins) == {"first-order", *cond.CONDITIONS}

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
