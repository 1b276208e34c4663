"""Scale invariance: phi = p~ / p, and so its Clark measures, level sets,
lines and singularities, do not change when p is multiplied by a
constant.  Scaling by a power of two is exact in floating point, so every
relative tolerance sees the same bits, and the builds agree bit for bit.
"""

import numpy as np
import pytest

from rifclark import catalog, clark, embedding, levelset, polydisk
from rifclark.errors import RifclarkError
from rifclark.poly import PolyMD, Rif

SCALES = (2.0 ** -50, 2.0 ** 50)
ALPHAS = (np.exp(0.7j), -1.0 + 0.0j, -np.exp(0.05j))

CASES = {
    "fav": catalog.simple_singular_rif,
    "squared": catalog.squared_singular_rif,
    "product": catalog.product_singular_rif,
    "diagonal": catalog.diagonal_rif,
    "contact_four": catalog.contact_four_rif,
    **{f"random_{seed}": (lambda seed=seed: catalog.random_rif(
        2, 3, seed, singular=seed % 2 == 1)) for seed in range(4)},
}


def _scaled(phi, c):
    return Rif(PolyMD(phi.den.coeffs * c), phi.degrees)


def _outcome(call):
    """What ``call`` returns, or the type of the package error it raises:
    a refusal must be the same refusal at every scale."""
    try:
        return call()
    except RifclarkError as exc:
        return type(exc)


def _build(phi, alpha):
    m = clark.build_measure(phi, alpha, 1024)
    return clark._digest(m), m.lines


def _residuals(phi, alpha):
    return embedding.conj_rational(phi, alpha).max_residual


@pytest.mark.parametrize("name", CASES)
def test_scaled_denominator_changes_nothing(name):
    phi = CASES[name]()
    points = np.array(levelset.find_singularities(phi), dtype=complex)
    for c in SCALES:
        scaled = _scaled(phi, c)
        for alpha in ALPHAS:
            assert _outcome(lambda: _build(scaled, alpha)) \
                == _outcome(lambda: _build(phi, alpha)), (c, alpha)
            assert _outcome(lambda: _residuals(scaled, alpha)) \
                == _outcome(lambda: _residuals(phi, alpha)), (c, alpha)
        # numpy's det leaves the resultant scale-covariant only to rounding
        got = np.array(levelset.find_singularities(scaled), dtype=complex)
        assert got.shape == points.shape
        assert np.all(np.abs(got - points) <= 1e-14), c


@pytest.mark.parametrize("s", [3.3, 4.0])
def test_scaled_tridisk_denominator_builds_the_same_measure(s):
    phi = catalog.tridisk_rif(s)
    for alpha in ALPHAS:
        want = clark._digest(polydisk.build_measure_d(phi, alpha, 32))
        for c in SCALES:
            m = polydisk.build_measure_d(_scaled(phi, c), alpha, 32)
            assert clark._digest(m) == want, (c, alpha)
