import numpy as np
import pytest

from grdm.kernel import GrassmannElement, Monomial


def rand_element(rng, m, nterms=6, scale=1.0):
    """Random sparse element with complex Gaussian coefficients."""
    terms = {}
    for _ in range(nterms):
        key = Monomial(int(rng.integers(0, 1 << m)), int(rng.integers(0, 1 << m)))
        terms[key] = scale * complex(rng.standard_normal(), rng.standard_normal())
    return GrassmannElement(m, terms)


def random_unitary(rng, m):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)
