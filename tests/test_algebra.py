"""Core algebra: construction, star product, involution, integrals."""

import pickle
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grdm import fock, kernel
from grdm.algebra import (
    _merge_sign,
    _mono_mul,
    _star_monomials_terms,
    change_generators,
    expectation,
    involution,
    make_element,
    max_coeff_difference,
    monomial_element,
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
    zero,
)
from grdm.kernel import (
    GrassmannElement,
    Monomial,
    _merge_parity,
    _mono_products,
    _popcount,
    _star_pairs,
    prune,
)
from _reference import change_generators_reference, moment_rows_reference, star_reference
from conftest import rand_element, random_unitary


class TestConstruction:
    def test_unit_element(self):
        el = make_element(2, [((), (), 1.0)])
        assert el.terms == {Monomial(0, 0): 1 + 0j}

    def test_duplicate_monomials_merge(self):
        el = make_element(2, [((1,), (1,), 1), ((1,), (1,), 1)])
        assert el.terms == {Monomial(1, 1): 2}

    def test_complex_single_term(self):
        el = make_element(3, [((1, 2), (3,), 1j)])
        assert el.terms == {Monomial(0b011, 0b100): 1j}

    def test_index_out_of_range(self):
        for bar, unbar in (((3,), ()), ((), (0,)), ((1,), (3,))):
            with pytest.raises(ValueError, match="outside"):
                make_element(2, [(bar, unbar, 1.0)])

    def test_bad_generator_count(self):
        # every constructor checks m itself, the array one the vector's length too
        for build in (lambda: make_element(0, []), lambda: zero(0), lambda: unit(2.5),
                      lambda: monomial_element(Monomial(0, 0), -1),
                      lambda: GrassmannElement(0, {}), lambda: GrassmannElement(2.5, {}),
                      lambda: GrassmannElement.from_vector(0, np.ones(1))):
            with pytest.raises(ValueError, match="positive integer"):
                build()
        for build in (lambda: make_element(11, []), lambda: unit(11),
                      lambda: GrassmannElement(11, {}),
                      lambda: GrassmannElement.from_vector(11, np.zeros(4))):
            with pytest.raises(ValueError, match="cap 10"):
                build()
        # m = 1 with 8 entries would hold bar masks 2 and 3, generators outside [1, 1]
        for m, vec in ((1, np.arange(8.0)), (2, np.zeros(4)), (1, np.zeros((2, 2)))):
            with pytest.raises(ValueError, match=rf"length 4\*\*{m}"):
                GrassmannElement.from_vector(m, vec)

    def test_cancellation_drops_term(self):
        el = make_element(2, [((1,), (), 1.0), ((1,), (), -1.0)])
        assert el.terms == {}

    def test_prune_relative(self):
        el = make_element(2, [((), (), 1.0), ((1,), (1,), 1e-20)])
        assert len(prune(el).terms) == 1
        assert len(el.terms) == 2  # prune is explicit, not implicit


class TestElementValue:
    """One value, two representations: the sorted index and coefficient arrays, and `terms`."""

    def test_dict_and_array_built_agree(self, rng):
        for m in (1, 3, 5):
            a = rand_element(rng, m, nterms=9)
            b = GrassmannElement.from_vector(m, a.to_vector())
            assert a == b and b == a
            assert np.array_equal(a.to_vector(), b.to_vector())
            assert b.terms == a.terms
            assert list(b.terms) == sorted(a.terms)
            index, coeffs = a.arrays()
            assert index.tolist() == [(k.bar << m) | k.unbar for k in sorted(a.terms)]
            assert coeffs.tolist() == [a.terms[k] for k in sorted(a.terms)]
        assert GrassmannElement.from_vector(2, np.zeros(16)) == zero(2)
        assert unit(2) != 2 * unit(2)
        assert unit(2) != unit(3)

    def test_arrays_built_at_construction(self):
        el = GrassmannElement(3, {Monomial(1, 2): 1.0, Monomial(0, 0): 0.5})
        index, coeffs = el.__dict__["_arrays"]  # before any read of the value
        assert index.tolist() == [0, (1 << 3) | 2]
        assert coeffs.tolist() == [0.5 + 0j, 1 + 0j]
        assert "terms" not in el.__dict__
        assert list(el.terms) == [Monomial(0, 0), Monomial(1, 2)]

    @pytest.mark.parametrize("mono", [Monomial(0, 4), Monomial(4, 0), Monomial(8, 1), Monomial(-1, 0)])
    def test_constructor_rejects_generators_outside_m(self, mono):
        # p_3 at m = 2 must not alias to to_vector index 4, which is pbar_1
        with pytest.raises(ValueError, match=rf"Monomial\(bar={mono.bar}, unbar={mono.unbar}\) .*outside \[1, 2\]"):
            GrassmannElement(2, {Monomial(0, 1): 1.0, mono: 1.0})
        with pytest.raises(ValueError, match="outside"):
            monomial_element(mono, 2)
        assert GrassmannElement(3, {Monomial(0, 4): 1.0}).to_vector()[4] == 1

    def test_immutable(self):
        el = make_element(2, [((1,), (2,), 1.0)])
        with pytest.raises(TypeError):
            el.terms[Monomial(0, 0)] = 1.0
        with pytest.raises(AttributeError):
            el.m = 3
        for arr in el.arrays():
            assert not arr.flags.writeable
        array_built = 2 * el
        with pytest.raises(TypeError):
            array_built.terms[Monomial(1, 2)] = 0j
        assert el.terms == {Monomial(1, 2): 1 + 0j}
        assert array_built.terms == {Monomial(1, 2): 2 + 0j}

    def test_pickle_repr_and_negation(self, rng):
        a = rand_element(rng, 3, nterms=5)
        assert pickle.loads(pickle.dumps(a)) == a
        assert eval(repr(a), {"GrassmannElement": GrassmannElement, "Monomial": Monomial}) == a
        assert (-a).terms == {k: -c for k, c in a.terms.items()}
        assert -a + a == zero(3)

    def test_scalar_product_and_prune_on_arrays(self, rng):
        a = rand_element(rng, 3, nterms=8)
        assert ((2 - 1j) * a).terms == {k: c * (2 - 1j) for k, c in a.terms.items()}
        assert (0 * a) == zero(3)
        b = make_element(3, [((1,), (2,), 1 + 2j), ((), (), -0.5)])
        assert prune(b + make_element(3, [((1, 2, 3), (1, 2, 3), 1e-16)])) == prune(b) == b

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
    def test_prune_rejects_non_finite(self, bad):
        el = make_element(2, [((), (), 1.0), ((1,), (2,), bad)])
        with pytest.raises(ValueError, match=r"non-finite coefficient .*(nan|inf).* Monomial\(bar=1, unbar=2\)"):
            prune(el)

    def test_change_generators_on_array_built(self, rng):
        a = rand_element(rng, 3, nterms=20)
        u = random_unitary(rng, 3)
        got = change_generators(GrassmannElement.from_vector(3, a.to_vector()), u)
        assert got == change_generators(a, u)
        want = change_generators_reference(a, u)
        assert max_coeff_difference(got, want) <= 1e-12 * want.norm_max()


@pytest.mark.parametrize("dtype", [np.uint8, np.intp])
def test_merge_signs_equal_scalar_kernel(dtype):
    # every pair of disjoint masks at m = 6, in both mask dtypes the map builds use
    a, b = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
    keep = (a & b) == 0
    a, b = a[keep], b[keep]
    want = [_merge_sign(int(x), int(y)) for x, y in zip(a, b)]
    parity = _merge_parity([(a.astype(dtype), b.astype(dtype))], 6)
    assert (1 - 2 * parity).tolist() == want


def _all_pairs(m):
    n = 1 << (2 * m)
    ia, ib = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return ia.ravel(), ib.ravel()


def _seeded_pairs(m, count=2000):
    return np.random.default_rng(1000 + m).integers(0, 1 << (2 * m), size=(2, count))


def _scalar_star_pairs(ia, ib, m):
    """(pair, index, sign) of `_star_pairs` from the memoised scalar product, pair by pair."""
    low = (1 << m) - 1
    out = []
    for p, (a, b) in enumerate(zip(ia.tolist(), ib.tolist())):
        for t, c in _star_monomials_terms(a >> m, a & low, b >> m, b & low, m):
            assert c.imag == 0
            out.append((p, (t.bar << m) | t.unbar, int(c.real)))
    return tuple(np.array(col, dtype=np.intp) for col in zip(*out))


class TestKernel:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_star_pairs_equal_scalar_product_term_for_term(self, m):
        # every pair at m <= 3, 2000 seeded pairs above; vanishing pairs have no terms
        ia, ib = _all_pairs(m) if m <= 3 else _seeded_pairs(m)
        got = _star_pairs(ia, ib, m)
        want = _scalar_star_pairs(ia, ib, m)
        assert 0 < len(np.unique(got[0])) < len(ia)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_mono_products_equal_scalar_product(self, m):
        ia, ib = _all_pairs(m) if m <= 3 else _seeded_pairs(m)
        low = (1 << m) - 1
        want = [(p, (r[1] << m) | r[2], r[0]) for p, (a, b) in enumerate(zip(ia.tolist(), ib.tolist()))
                if (r := _mono_mul(a >> m, a & low, b >> m, b & low)) is not None]
        got = _mono_products(ia, ib, m)
        assert list(zip(*(x.tolist() for x in got))) == want

    def test_popcount(self):
        x = np.arange(1 << 10)
        assert _popcount(x, 10).tolist() == [k.bit_count() for k in range(1 << 10)]
        small = np.arange(256, dtype=np.uint8)
        assert _popcount(small, 8).tolist() == [k.bit_count() for k in range(256)]

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_moment_rows_equal_scalar_loop(self, m):
        # all monomials at m <= 3; the shared moment map's and 50 seeded ones above
        if m <= 3:
            index = np.arange(1 << (2 * m))
        else:
            index = np.concatenate((kernel._moment_map(m)[1], _seeded_pairs(m, 50)[0]))
        monos = [Monomial(t >> m, t & ((1 << m) - 1)) for t in index.tolist()]
        for g, w in zip(kernel._moment_rows(index, m), moment_rows_reference(monos, m)):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_moment_map_at_m10_equals_scalar_rows(self):
        m = 10
        (rows, cols, vals), index = kernel._moment_map(m)
        assert len(index) == 1 + m * m + (m * (m - 1) // 2) ** 2
        sample = np.random.default_rng(10).choice(len(index), 60, replace=False)
        monos = [Monomial(t >> m, t & ((1 << m) - 1)) for t in index[sample].tolist()]
        want_rows, want_cols, want_vals = moment_rows_reference(monos, m)
        for r, row in enumerate(sample):
            keep, want = rows == row, want_rows == r
            assert np.array_equal(cols[keep], want_cols[want])
            assert np.array_equal(vals[keep], want_vals[want])

    def test_dense_star_at_m6_matches_operator_product(self):
        # 4096 x 4096 term pairs, through the kernel in bounded chunks
        m = 6
        rng = np.random.default_rng(66)
        a, b = (GrassmannElement.from_vector(m, rng.standard_normal(1 << 12)
                                             + 1j * rng.standard_normal(1 << 12)) for _ in range(2))
        got = star(a, b)
        want = fock.from_operator(fock.to_operator(a) @ fock.to_operator(b))
        assert max_coeff_difference(got, want) <= 1e-12 * want.norm_max()


class TestStarProduct:
    def test_psi_psi_disjoint(self):
        # p_i * p_j is the plain ordered monomial
        out = star(psi(1, 3), psi(2, 3))
        assert out.terms == {Monomial(0, 0b011): 1 + 0j}
        out = star(psi(2, 3), psi(1, 3))
        assert out.terms == {Monomial(0, 0b011): -1 + 0j}

    def test_psi_psibar_same_mode(self):
        out = star(psi(2, 3), psibar(2, 3))
        assert out.terms == {Monomial(0, 0): 1 + 0j, Monomial(2, 2): -1 + 0j}

    def test_psibar_psi_any_modes(self):
        for i, j in product(range(1, 4), repeat=2):
            out = star(psibar(i, 3), psi(j, 3))
            assert out.terms == {Monomial(1 << (i - 1), 1 << (j - 1)): 1 + 0j}

    def test_unit_law(self, rng):
        for m in (1, 2, 3):
            a = rand_element(rng, m)
            assert max_coeff_difference(star(unit(m), a), a) <= 1e-14
            assert max_coeff_difference(star(a, unit(m)), a) <= 1e-14

    def test_projector_idempotent_under_star(self):
        n1 = star(psibar(1, 2), psi(1, 2))
        assert max_coeff_difference(star(n1, n1), n1) <= 1e-14

    def test_car_exhaustive(self):
        for m in range(1, 5):
            for i, j in product(range(1, m + 1), repeat=2):
                assert (star(psi(i, m), psi(j, m)) + star(psi(j, m), psi(i, m))).terms == {}
                assert (star(psibar(i, m), psibar(j, m)) + star(psibar(j, m), psibar(i, m))).terms == {}
                anti = star(psibar(i, m), psi(j, m)) + star(psi(j, m), psibar(i, m))
                want = unit(m) if i == j else zero(m)
                assert max_coeff_difference(anti, want) <= 0.0

    def test_matches_integral_definition_exhaustive_m2(self):
        m = 2
        for I, J, K, L in product(range(4), repeat=4):
            a, b = Monomial(I, J), Monomial(K, L)
            fast = star_monomials(a, b, m)
            slow = star_reference(monomial_element(a, m), monomial_element(b, m))
            assert max_coeff_difference(fast, slow) == 0.0

    def test_matches_integral_definition_random_m3(self, rng):
        for _ in range(20):
            a, b = rand_element(rng, 3), rand_element(rng, 3)
            assert max_coeff_difference(star(a, b), star_reference(a, b)) < 1e-12

    def test_associativity(self, rng):
        for m in (2, 3):
            for _ in range(50):
                a, b, c = (rand_element(rng, m) for _ in range(3))
                lhs = star(star(a, b), c)
                rhs = star(a, star(b, c))
                scale = max(lhs.norm_max(), rhs.norm_max(), 1.0)
                assert max_coeff_difference(lhs, rhs) <= 1e-12 * scale

    def test_mismatched_m(self, rng):
        with pytest.raises(ValueError, match="mismatched"):
            star(unit(2), unit(3))

    def test_star_cap(self):
        with pytest.raises(ValueError, match="cap"):
            star(unit(7), unit(7))


class TestInvolution:
    def test_single_term_swap(self):
        el = make_element(3, [((1,), (2,), 2 + 3j)])
        out = involution(el)
        assert out.terms == {Monomial(0b010, 0b001): 2 - 3j}

    def test_double_bar_sign(self):
        # (pbar1 pbar2)* = p2 p1 = -p1 p2
        el = make_element(2, [((1, 2), (), 1.0)])
        assert involution(el).terms == {Monomial(0, 0b11): -1 + 0j}

    def test_involutive(self, rng):
        for _ in range(20):
            a = rand_element(rng, 3)
            assert max_coeff_difference(involution(involution(a)), a) < 1e-14

    def test_antihomomorphism(self, rng):
        for _ in range(50):
            a, b = rand_element(rng, 3), rand_element(rng, 3)
            lhs = involution(star(a, b))
            rhs = star(involution(b), involution(a))
            scale = max(lhs.norm_max(), 1.0)
            assert max_coeff_difference(lhs, rhs) <= 1e-12 * scale


class TestIntegrals:
    def test_raw_integral_no_top(self):
        for m in (1, 2, 3):
            assert raw_integral(unit(m)) == 0

    def test_raw_integral_top_sign_pinned_by_trace(self):
        # m = 1 top monomial: the sign convention must give trace 1 for the
        # occupied-mode projector through the weighted integral
        el = monomial_element(Monomial(1, 1), 1)
        assert raw_integral(el) == -1
        assert trace_integral(el) == 1

    def test_raw_integral_linearity(self, rng):
        m = 2
        top = monomial_element(Monomial(3, 3), m)
        lower = rand_element(rng, m)
        lower = GrassmannElement(m, {k: c for k, c in lower.terms.items() if k != Monomial(3, 3)})
        alpha = 2.5 - 1j
        combined = alpha * top + lower
        assert abs(raw_integral(combined) - alpha * raw_integral(top)) < 1e-14

    def test_trace_identity_element(self):
        assert trace_integral(unit(2)) == 4

    def test_trace_two_body_diagonal_m3(self):
        el = monomial_element(Monomial(0b011, 0b011), 3)
        assert trace_integral(el) == -2

    def test_trace_off_diagonal(self):
        assert trace_integral(make_element(2, [((1,), (2,), 1.0)])) == 0

    def test_trace_anchor_all_monomials(self):
        for m in range(1, 5):
            for mask in range(1 << m):
                k = mask.bit_count()
                want = (-1) ** (k * (k - 1) // 2) * 2 ** (m - k)
                assert trace_integral(monomial_element(Monomial(mask, mask), m)) == want

    def test_trace_equals_weighted_raw(self, rng):
        for m in (1, 2, 3, 4):
            w = trace_weight(m)
            for _ in range(10):
                a = rand_element(rng, m)
                lhs = trace_integral(a)
                rhs = (-1) ** m * raw_integral(multiply(a, w))
                assert abs(lhs - rhs) < 1e-12

    def test_pair_integral_examples(self):
        n1 = Monomial(1, 1)
        assert pair_integral_closed_form(n1, n1, 2) == 2
        hop = Monomial(0b01, 0b10)
        assert pair_integral_closed_form(hop, hop, 2) == 0
        one = Monomial(0, 0)
        assert pair_integral_closed_form(one, one, 2) == 4

    def test_pair_integral_exhaustive(self):
        for m in (1, 2, 3):
            for I, J, K, L in product(range(1 << m), repeat=4):
                a, b = Monomial(I, J), Monomial(K, L)
                closed = pair_integral_closed_form(a, b, m)
                direct = trace_integral(star_monomials(a, b, m))
                assert closed == direct

    def test_moment_rows_exhaustive(self):
        # every monomial pair for m <= 3: the rows hold exactly the nonzero
        # pair traces, 6**m of them over the whole map
        for m in (1, 2, 3):
            monos = [Monomial(K, L) for K in range(1 << m) for L in range(1 << m)]
            rows, cols, vals = kernel._moment_rows(np.arange(1 << (2 * m)), m)
            dense = np.zeros((len(monos), 1 << (2 * m)))
            np.add.at(dense, (rows, cols), vals)
            assert len(vals) == 6 ** m and np.all(vals != 0)
            for r, t in enumerate(monos):
                assert np.count_nonzero(dense[r]) == 2 ** (m - (t.bar ^ t.unbar).bit_count())
                for k in monos:
                    want = trace_integral(star_monomials(k, t, m))
                    assert dense[r, (k.bar << m) | k.unbar] == want
                    assert star_trace(monomial_element(k, m), monomial_element(t, m)) == want

    def test_moment_rows_random_pairs(self, rng):
        for m in (4, 5, 6):
            monos = [Monomial(int(rng.integers(1 << m)), int(rng.integers(1 << m)))
                     for _ in range(40)]
            rows, cols, vals = kernel._moment_rows(np.array([(t.bar << m) | t.unbar for t in monos]), m)
            stored = {(int(r), int(c)): v for r, c, v in zip(rows, cols, vals)}
            # every stored entry is a nonzero pair trace ...
            for (r, c), v in stored.items():
                k = Monomial(c >> m, c & ((1 << m) - 1))
                assert v != 0 and v == trace_integral(star_monomials(k, monos[r], m))
            # ... and random pairs missing from the rows trace to zero
            for r, t in enumerate(monos):
                for _ in range(10):
                    k = Monomial(int(rng.integers(1 << m)), int(rng.integers(1 << m)))
                    want = star_trace(monomial_element(k, m), monomial_element(t, m))
                    assert stored.get((r, (k.bar << m) | k.unbar), 0) == want

    def test_to_vector_layout(self, rng):
        for m in (1, 3, 5):
            a = rand_element(rng, m, nterms=7)
            vec = a.to_vector()
            assert vec.shape == (4 ** m,)
            want = np.zeros(4 ** m, dtype=complex)
            for k, c in a.terms.items():
                want[k.bar * 2 ** m + k.unbar] = c
            assert np.array_equal(vec, want)
        assert not zero(2).to_vector().any()

    def test_star_trace_equals_trace_of_star(self, rng):
        for _ in range(30):
            a, b = rand_element(rng, 3), rand_element(rng, 3)
            assert abs(star_trace(a, b) - trace_integral(star(a, b))) < 1e-12
        # unequal sizes, so both elements take the walked side
        for m in (3, 4):
            a, b = rand_element(rng, m, nterms=2), rand_element(rng, m, nterms=20)
            assert abs(star_trace(a, b) - trace_integral(star(a, b))) < 1e-12
            assert abs(star_trace(b, a) - trace_integral(star(b, a))) < 1e-12

    def test_cyclicity(self, rng):
        for _ in range(50):
            a, b = rand_element(rng, 3), rand_element(rng, 3)
            assert abs(star_trace(a, b) - star_trace(b, a)) < 1e-11
        for _ in range(20):
            a, b, c = (rand_element(rng, 3) for _ in range(3))
            lhs = trace_integral(star(star(a, b), c))
            rhs = trace_integral(star(star(b, c), a))
            assert abs(lhs - rhs) < 1e-10

    def test_positivity(self, rng):
        for m in (2, 3, 4):
            for _ in range(40):
                a = rand_element(rng, m)
                val = star_trace(involution(a), a)
                scale = 1.0 + sum(abs(c) ** 2 for c in a.terms.values()) * 2 ** m
                assert val.real >= -1e-10 * scale
                assert abs(val.imag) <= 1e-10 * scale


class TestExpectation:
    def test_normalized_unit(self):
        dens = make_element(2, [((), (), 0.25)])  # maximally mixed
        assert abs(expectation(dens, unit(2)) - 1.0) < 1e-14

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            expectation(unit(2), unit(2))

    def test_cyclic_expectation(self, rng):
        dens = make_element(2, [((), (), 0.25)])
        for _ in range(20):
            a, b = rand_element(rng, 2), rand_element(rng, 2)
            lhs = expectation(dens, star(a, b))
            rhs = expectation(dens, star(b, a))
            assert abs(lhs - rhs) < 1e-10


class TestChangeGenerators:
    def test_identity(self, rng):
        a = rand_element(rng, 3)
        assert max_coeff_difference(change_generators(a, np.eye(3)), a) < 1e-14

    def test_permutation_relabels(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        el = make_element(2, [((1,), (1,), 1.0)])
        out = change_generators(el, swap)
        assert out.terms == {Monomial(0b10, 0b10): 1 + 0j}

    def test_trace_invariance(self, rng):
        for _ in range(20):
            u = random_unitary(rng, 3)
            a = rand_element(rng, 3)
            assert abs(trace_integral(change_generators(a, u)) - trace_integral(a)) < 1e-10
            assert abs(raw_integral(change_generators(a, u)) - raw_integral(a)) < 1e-10

    def test_composition(self, rng):
        a = rand_element(rng, 3)
        u, v = random_unitary(rng, 3), random_unitary(rng, 3)
        lhs = change_generators(change_generators(a, u), v)
        rhs = change_generators(a, u @ v)
        assert max_coeff_difference(lhs, rhs) < 1e-10

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            change_generators(unit(2), np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^u must be a 2x2 matrix, got shape \(3, 3\)"):
            change_generators(unit(2), np.eye(3))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_minor_loop_reference(self, rng, m):
        # every coefficient at m <= 5, 300 random ones at m = 6 (the loop
        # takes about 1 s on a dense m = 6 element)
        n = 1 << m
        keys = ([Monomial(i, j) for i in range(n) for j in range(n)] if m <= 5 else
                [Monomial(int(i), int(j)) for i, j in rng.integers(0, n, (300, 2))])
        a = GrassmannElement(m, {k: complex(*rng.standard_normal(2)) for k in keys})
        conserving = GrassmannElement(m, {k: c for k, c in a.terms.items()
                                          if k.bar.bit_count() == k.unbar.bit_count()})
        perm = np.eye(m)[rng.permutation(m)]
        for el, u in ((a, random_unitary(rng, m)), (conserving, random_unitary(rng, m)),
                      (a, perm)):
            got, want = change_generators(el, u), change_generators_reference(el, u)
            assert max_coeff_difference(got, want) <= 1e-12 * want.norm_max()
            if el is conserving:
                assert set(got.terms) == set(want.terms)
        # a permutation moves each coefficient exactly, so both drop the same exact zeros
        assert change_generators(a, perm).terms == change_generators_reference(a, perm).terms

    def test_star_compatible(self, rng):
        # substitution is an algebra map: CG(a * b) = CG(a) * CG(b)
        u = random_unitary(rng, 3)
        a, b = rand_element(rng, 3), rand_element(rng, 3)
        lhs = change_generators(star(a, b), u)
        rhs = star(change_generators(a, u), change_generators(b, u))
        scale = max(lhs.norm_max(), 1.0)
        assert max_coeff_difference(lhs, rhs) <= 1e-11 * scale


small_coeff = st.complex_numbers(min_magnitude=0.0, max_magnitude=4.0,
                                 allow_nan=False, allow_infinity=False)


@st.composite
def elements(draw, m=None):
    if m is None:
        m = draw(st.integers(min_value=1, max_value=3))
    nterms = draw(st.integers(min_value=0, max_value=6))
    terms = []
    for _ in range(nterms):
        bar = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
        ub = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
        terms.append((Monomial(bar, ub), draw(small_coeff)))
    out = {}
    for key, c in terms:
        out[key] = out.get(key, 0j) + c
    return GrassmannElement(m, {k: c for k, c in out.items() if c != 0})


@settings(max_examples=60, deadline=None)
@given(elements())
def test_hypothesis_involution_is_involutive(a):
    scale = max(a.norm_max(), 1.0)
    assert max_coeff_difference(involution(involution(a)), a) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(elements(m=2), elements(m=2), elements(m=2))
def test_hypothesis_associativity(a, b, c):
    lhs = star(star(a, b), c)
    rhs = star(a, star(b, c))
    scale = max(lhs.norm_max(), rhs.norm_max(), 1.0)
    assert max_coeff_difference(lhs, rhs) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(elements(m=2), elements(m=2))
def test_hypothesis_trace_cyclicity(a, b):
    scale = (1.0 + a.norm_max()) * (1.0 + b.norm_max())
    assert abs(star_trace(a, b) - star_trace(b, a)) <= 1e-10 * scale * 4


oracle_m = st.integers(min_value=1, max_value=6)


@settings(max_examples=40, deadline=None)
@given(oracle_m.flatmap(lambda m: elements(m=m)))
def test_hypothesis_operator_roundtrip(a):
    back = fock.from_operator(fock.to_operator(a))
    assert max_coeff_difference(back, a) <= 1e-12 * max(a.norm_max(), 1.0)


@settings(max_examples=40, deadline=None)
@given(oracle_m.flatmap(lambda m: st.tuples(elements(m=m), elements(m=m))))
def test_hypothesis_operator_homomorphism(pair):
    a, b = pair
    lhs = fock.from_operator(fock.to_operator(a) @ fock.to_operator(b))
    rhs = star(a, b)
    scale = (1.0 + a.norm_max()) * (1.0 + b.norm_max())
    assert max_coeff_difference(lhs, rhs) <= 1e-10 * scale
