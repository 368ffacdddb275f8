"""Fock-space oracle: ladder operators, the operator correspondence, pdms."""

from itertools import product

import numpy as np
import pytest

from grdm import fock
from grdm.algebra import (
    involution,
    make_element,
    star,
    trace_integral,
    unit,
)
from grdm.kernel import GrassmannElement, Monomial
from grdm.limits import _coo_apply
from conftest import rand_element, random_unitary
from _reference import (annihilation, creation, element_map_reference, exchange_matrix,
                        number_operator, pdms_from_rho_reference, slater_state,
                        to_operator_reference)


class TestLadders:
    def test_car_exhaustive(self):
        for m in range(1, 5):
            dim = 1 << m
            eye = np.eye(dim)
            for i, j in product(range(1, m + 1), repeat=2):
                ci, cj = annihilation(i, m), annihilation(j, m)
                csi, csj = creation(i, m), creation(j, m)
                assert not (ci @ cj + cj @ ci).any()
                assert not (csi @ csj + csj @ csi).any()
                want = eye if i == j else np.zeros((dim, dim))
                assert np.array_equal((ci @ csj + csj @ ci).real, want)

    def test_vacuum_annihilated(self):
        for m in (1, 2, 3):
            for i in range(1, m + 1):
                assert not annihilation(i, m)[:, 0].any()

    def test_pauli_exclusion(self):
        c1 = creation(1, 3)
        assert not (c1 @ c1).any()

    def test_number_trace(self):
        # half of the 4 basis states occupy mode 1
        val = np.trace(creation(1, 2) @ annihilation(1, 2))
        assert val == 2

    def test_integer_entries(self):
        for i in (1, 2, 3):
            mat = creation(i, 3)
            assert np.array_equal(mat, np.round(mat.real))

    def test_index_validation(self):
        with pytest.raises(ValueError, match="outside"):
            creation(4, 3)
        with pytest.raises(ValueError, match="cap"):
            creation(1, 9)
        for i in (0, 4):
            with pytest.raises(ValueError, match=rf"mode index {i} outside \[1, 3\]"):
                annihilation(i, 3)


class TestCorrespondence:
    def test_unit_maps_to_identity(self):
        assert np.array_equal(fock.to_operator(unit(2)), np.eye(4))

    def test_number_operator_image(self):
        el = make_element(2, [((1,), (1,), 1.0)])
        want = creation(1, 2) @ annihilation(1, 2)
        assert np.array_equal(fock.to_operator(el), want)

    def test_from_operator_identity(self):
        assert (fock.from_operator(np.eye(4)) - unit(2)).norm_max() == 0

    def test_from_operator_antinormal_product(self):
        # c1 c*1 expands to 1 - pbar1 p1
        op = annihilation(1, 2) @ creation(1, 2)
        got = fock.from_operator(op)
        assert got.terms == {Monomial(0, 0): 1 + 0j, Monomial(1, 1): -1 + 0j}

    def test_isomorphism_roundtrip(self, rng):
        for m, reps in ((2, 70), (3, 70), (4, 60), (5, 20), (6, 6)):
            for _ in range(reps):
                a = rand_element(rng, m, nterms=8)
                back = fock.from_operator(fock.to_operator(a))
                assert (back - a).norm_max() < 1e-12

    def test_product_rule(self, rng):
        for m in (2, 3):
            dim = 1 << m
            for _ in range(30):
                A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                lhs = fock.from_operator(A @ B)
                rhs = star(fock.from_operator(A), fock.from_operator(B))
                assert (lhs - rhs).norm_max() < 1e-10

    def test_product_rule_triples(self, rng):
        m, dim = 3, 8
        for _ in range(20):
            ops = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                   for _ in range(3)]
            lhs = fock.from_operator(ops[0] @ ops[1] @ ops[2])
            rhs = star(star(*map(fock.from_operator, ops[:2])), fock.from_operator(ops[2]))
            assert (lhs - rhs).norm_max() < 1e-9

    def test_involution_compatibility(self, rng):
        for _ in range(20):
            dim = 8
            A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            lhs = fock.from_operator(A.conj().T)
            rhs = involution(fock.from_operator(A))
            assert (lhs - rhs).norm_max() < 1e-10

    def test_trace_formula_all_basis_monomials(self):
        for m in range(1, 5):
            for bar in range(1 << m):
                for ub in range(1 << m):
                    el = GrassmannElement(m, {Monomial(bar, ub): 1 + 0j})
                    assert trace_integral(el) == np.trace(fock.to_operator(el))

    def test_trace_formula_random_density(self, rng):
        for m in (2, 3):
            rho = fock.random_density(m, 123 + m)
            el = fock.from_operator(rho)
            assert abs(trace_integral(el) - 1.0) < 1e-12

    def test_theta_cap(self):
        # the operator -> element direction shares the oracle cap m <= 8
        with pytest.raises(ValueError, match="cap 8"):
            fock.from_operator(np.eye(1 << 9))

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            fock.from_operator(np.eye(5))
        with pytest.raises(ValueError, match=r"square matrix, got shape \(4, 8\)"):
            fock.from_operator(np.ones((4, 8)))


def _all_terms(m, keep, rng):
    """Element with a random coefficient on every monomial that `keep` accepts, in index order."""
    terms = {}
    for bar in range(1 << m):
        for ub in range(1 << m):
            if keep(bar, ub):
                terms[Monomial(bar, ub)] = complex(rng.standard_normal(), rng.standard_normal())
    return GrassmannElement(m, terms)


class TestSignedGathers:
    """The Jordan-Wigner gathers against the dense ladder-matrix references."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_pdms_match_dense_traces(self, m, rng):
        dim = 1 << m
        generic = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for rho in (fock.random_density(m, 50 + m), generic / dim):
            gamma, Gamma = fock.pdms_from_rho(rho)
            gamma_r, Gamma_r = pdms_from_rho_reference(rho)
            assert np.max(np.abs(gamma - gamma_r)) <= 1e-13
            assert np.max(np.abs(Gamma - Gamma_r)) <= 1e-13

    @pytest.mark.parametrize("m", range(1, 6))
    def test_to_operator_equals_ordered_products(self, m, rng):
        # every entry sums its terms in the same order, so the match is exact
        dense = _all_terms(m, lambda bar, ub: True, rng)
        nonconserving = _all_terms(m, lambda bar, ub: bar.bit_count() != ub.bit_count(), rng)
        for a in (dense, nonconserving):
            assert np.array_equal(fock.to_operator(a), to_operator_reference(a))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_element_map_equals_loop(self, m):
        got, want = fock._element_map(m), element_map_reference(m)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_from_operator_equals_loop_map_and_cut(self, m, rng):
        # the loop's map applied and cut at 1e-13 of the largest magnitude, as
        # from_operator did with a Monomial dict: the same terms, bit for bit
        dim = 1 << m
        generic = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        scaled = generic * 10.0 ** rng.integers(-20, 1, (dim, dim))
        for op in (fock.random_density(m, 60 + m), generic, scaled):
            coeffs = _coo_apply(*element_map_reference(m), op.ravel(), dim * dim)
            size = np.abs(coeffs)
            keep = np.flatnonzero(size > 1e-13 * size.max())
            index, vals = fock.from_operator(op).arrays()
            assert np.array_equal(index, keep)
            assert np.array_equal(vals, coeffs[keep])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_from_operator_rejects_non_finite(self, bad):
        op = np.eye(8, dtype=complex) / 8
        op[2, 5] = bad
        with pytest.raises(ValueError, match=r"entry \[2, 5\] is non-finite: .*(nan|inf)"):
            fock.from_operator(op)

    def test_maps_are_read_only(self):
        gathers = [*fock._operator_map(3), *fock._element_map(3),
                   *(arr for g in fock._pdm_maps(3) for arr in g)]
        assert not any(arr.flags.writeable for arr in gathers)

    def test_roundtrip_at_the_cap(self, rng):
        for m in (7, 8):
            a = rand_element(rng, m, nterms=40)
            assert (fock.from_operator(fock.to_operator(a)) - a).norm_max() < 1e-12


class TestPdms:
    def test_vacuum(self):
        vac = np.zeros((8, 8), dtype=complex)
        vac[0, 0] = 1.0
        gamma, Gamma = fock.pdms_from_rho(vac)
        assert not gamma.any() and not Gamma.any()

    def test_slater_orbitals_1_to_n(self):
        m, n = 4, 2
        state = slater_state(np.eye(m)[:, :n], m)
        rho = np.outer(state, state.conj())
        gamma, Gamma = fock.pdms_from_rho(rho)
        assert np.allclose(gamma, np.diag([1.0] * n + [0.0] * (m - n)), atol=1e-12)
        ex = exchange_matrix(m)
        assert np.allclose(Gamma, (np.eye(m * m) - ex) @ np.kron(gamma, gamma), atol=1e-12)

    def test_slater_random_orbitals(self, rng):
        m, n = 3, 2
        orbitals = random_unitary(rng, m)[:, :n]
        state = slater_state(orbitals, m)
        rho = np.outer(state, state.conj())
        gamma, Gamma = fock.pdms_from_rho(rho)
        assert np.allclose(gamma, orbitals @ orbitals.conj().T, atol=1e-12)
        ex = exchange_matrix(m)
        assert np.max(np.abs(Gamma - (np.eye(m * m) - ex) @ np.kron(gamma, gamma))) < 1e-12

    def test_slater_dependent_orbitals_rejected(self):
        orbitals = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="linearly dependent"):
            slater_state(orbitals, 3)

    def test_trace_identities(self, rng):
        for m in (2, 3, 4):
            rho = fock.random_density(m, 1000 + m)
            gamma, Gamma = fock.pdms_from_rho(rho)
            nop = number_operator(m)
            assert abs(np.trace(gamma) - np.trace(rho @ nop)) < 1e-10
            assert abs(np.trace(Gamma) - np.trace(rho @ (nop @ nop - nop))) < 1e-10

    def test_hermiticity_and_exchange_antisymmetry(self, rng):
        for m in (2, 3, 4):
            rho = fock.random_density(m, 2000 + m)
            gamma, Gamma = fock.pdms_from_rho(rho)
            assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-12
            assert np.max(np.abs(Gamma - Gamma.conj().T)) < 1e-12
            ex = exchange_matrix(m)
            assert np.max(np.abs(ex @ Gamma + Gamma)) < 1e-12
            assert np.max(np.abs(Gamma @ ex + Gamma)) < 1e-12

    def test_gamma_spectrum_in_unit_interval(self, rng):
        rho = fock.random_density(4, 31)
        gamma, _ = fock.pdms_from_rho(rho)
        eigs = np.linalg.eigvalsh(gamma)
        assert eigs.min() > -1e-12 and eigs.max() < 1 + 1e-12


class TestRandomDensity:
    def test_deterministic(self):
        a = fock.random_density(3, 17)
        b = fock.random_density(3, 17)
        assert np.array_equal(a, b)

    def test_psd_unit_trace(self):
        rho = fock.random_density(3, 8)
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert abs(np.trace(rho) - 1) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_sector_support(self):
        rho = fock.random_density(4, 9, sector=2)
        pc = np.array([n.bit_count() for n in range(16)])
        mask = pc == 2
        assert np.allclose(rho[~mask][:, ~mask], 0)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert int(np.count_nonzero(np.linalg.eigvalsh(rho) > 1e-12)) <= 6

    def test_empty_sector_rejected(self):
        with pytest.raises(ValueError, match="sector"):
            fock.random_density(3, 1, sector=5)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_sector_equals_projector_sandwich(self, m):
        # the reference compresses B*B with the dense diagonal projector onto
        # the sector, from the same draws of B
        dim = 1 << m
        rng = np.random.default_rng(40 + m)
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for sector in range(m + 1):
            proj = np.diag([float(n.bit_count() == sector) for n in range(dim)]).astype(complex)
            want = proj @ (b.conj().T @ b) @ proj
            got = fock.random_density(m, 40 + m, sector=sector)
            assert np.array_equal(got, want / np.trace(want).real), sector


class TestContraction:
    def test_slater_two_particles(self, rng):
        m = 3
        state = slater_state(random_unitary(rng, m)[:, :2], m)
        rho = np.outer(state, state.conj())
        assert fock.contraction_check(*fock.pdms_from_rho(rho), 2) < 1e-12

    def test_random_sector_density(self):
        rho = fock.random_density(4, 5, sector=3)
        assert fock.contraction_check(*fock.pdms_from_rho(rho), 3) < 1e-10

    def test_wrong_particle_number_deviates(self):
        # N is an input: the sector-3 contraction is 2 gamma, which N = 2
        # divides by 1, so the deviation is max|gamma|, far above roundoff
        gamma, Gamma = fock.pdms_from_rho(fock.random_density(4, 5, sector=3))
        assert fock.contraction_check(gamma, Gamma, 2) > 0.1

    def test_single_particle_rejected(self):
        rho = fock.random_density(3, 4, sector=1)
        with pytest.raises(ValueError, match="N >= 2"):
            fock.contraction_check(*fock.pdms_from_rho(rho), 1)
