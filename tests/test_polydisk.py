import numpy as np
import pytest

from rifclark import catalog, clark, polydisk
from rifclark.errors import SingularDenominator, UnstableDenominator
from rifclark.poly import PolyMD, Rif


def closed_form_weight(s, alpha, z1, z2):
    num = (s * s * z1 * z2 - s * (z1 * z1 * z2 + z1 * z2 * z2 + z1 + z2)
           + z1 * z1 + z1 * z2 + z2 * z2)
    den = s * z1 * z2 - z1 - z2 + alpha
    return np.abs(num) / np.abs(den) ** 2


def test_tridisk_level_satisfies_equation():
    s, alpha = 4.0, np.exp(0.9j)
    phi = catalog.tridisk_rif(s)
    th = np.linspace(0.2, 6.0, 7)
    z1, z2 = np.exp(1j * th), np.exp(1j * th[::-1])
    psi = polydisk.tridisk_level(s, alpha, z1, z2)
    assert np.max(np.abs(np.abs(psi) - 1.0)) < 1e-12
    assert np.max(np.abs(phi(z1, z2, psi) - alpha)) < 1e-12


def test_tridisk_weight_frozen_values():
    # exact rational values at the corner (1, 1)
    assert abs(polydisk.tridisk_weight(4.0, 1.0 + 0.0j, 1.0, 1.0)
               - 1.0 / 3.0) < 1e-15
    assert abs(polydisk.tridisk_weight(3.0, 1.0j, 1.0, 1.0)) < 1e-15


def test_tridisk_weight_matches_closed_form():
    s = 4.0
    th = np.linspace(0.1, 6.2, 9)
    z1, z2 = np.exp(1j * th), np.exp(2j * th)
    for alpha in (1.0 + 0.0j, -1.0 + 0.0j, 1.0j, np.exp(0.3j)):
        got = polydisk.tridisk_weight(s, alpha, z1, z2)
        assert np.max(np.abs(got - closed_form_weight(s, alpha, z1, z2))) \
            < 1e-12


def test_diagonal_blowup_formula():
    th = np.linspace(0.05, 2 * np.pi - 0.05, 33)
    w = polydisk.tridisk_weight(3.0, -1.0 + 0.0j, np.exp(1j * th),
                                np.exp(-1j * th))
    exact = 1.0 + 1.0 / (1.0 - np.cos(th))
    assert np.max(np.abs(w - exact) / exact) < 1e-11


def test_singular_denominator_raises():
    with pytest.raises(SingularDenominator):
        polydisk.tridisk_level(3.0, -1.0 + 0.0j, 1.0, 1.0)


def test_family_needs_s_at_least_three():
    with pytest.raises(ValueError):
        polydisk.tridisk_weight(2.5, 1.0 + 0.0j, 1.0, 1.0)


def test_build_measure_d_matches_closed_form():
    s, alpha = 4.0, np.exp(0.9j)
    phi = catalog.tridisk_rif(s)
    m = polydisk.build_measure_d(phi, alpha, 64)
    assert m.nodes.shape == (64 * 64, 3)
    assert np.max(np.abs(np.abs(m.nodes) - 1.0)) < 1e-12
    z1, z2, _ = m.nodes.T
    assert np.max(np.abs(64 * 64 * m.weights
                         - closed_form_weight(s, alpha, z1, z2))) < 1e-8
    assert abs(polydisk.total_mass_d(m) - 1.0) < 1e-8


def test_build_measure_d_refuses_boundary_stability():
    phi = catalog.tridisk_rif(3.0)  # denominator vanishes at (1,1,1)
    with pytest.raises(UnstableDenominator):
        polydisk.build_measure_d(phi, 1.0j, 32)


def test_poisson_identity_three_variables():
    rep = polydisk.verify_poisson_d(4.0, np.exp(0.9j),
                                    (0.3 + 0.2j, -0.4j, 0.25), 256)
    assert rep.rel_err < 1e-10


def test_poisson_identity_s3_with_refinement():
    rep = polydisk.verify_poisson_d(3.0, 1.0j, (0.5, 0.5, 0.5), 512)
    assert rep.rel_err < 1e-4


def test_two_path_witness():
    conj_path, diag_path, gap = polydisk.two_path_witness()
    assert abs(conj_path - (-1.0)) < 1e-10
    assert abs(diag_path - 1.0) < 1e-6
    assert abs(gap - 2.0) < 1e-6


def test_integrate_constant_on_tridisk_measure():
    phi = catalog.tridisk_rif(5.0)
    m = polydisk.build_measure_d(phi, 1.0j, 32)
    got = clark.integrate(m, lambda a, b, c: 1.0 + 0.0 * a * c)
    assert abs(got - clark.total_mass(m)) < 1e-14


@pytest.mark.parametrize("k", [2, 3])
def test_build_measure_d_mass_several_sheets(k):
    # denominator s - z1 - z2 - z3^k: k roots in z3 over every slice
    c = np.zeros((2, 2, k + 1), dtype=complex)
    c[0, 0, 0] = 3.5
    c[1, 0, 0] = c[0, 1, 0] = c[0, 0, k] = -1.0
    phi = Rif(PolyMD(c))
    alpha = np.exp(0.4j)
    m = polydisk.build_measure_d(phi, alpha, 64)
    assert m.nodes.shape == (k * 64 * 64, 3)
    assert np.max(np.abs(phi(*m.nodes.T) - alpha)) < 1e-12
    assert abs(polydisk.total_mass_d(m)
               - clark.expected_mass(phi, alpha)) < 1e-10
