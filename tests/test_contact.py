import numpy as np
import pytest

from rifclark import catalog, clark, contact, levelset
from rifclark.errors import FitDegenerate, NonConvergent
from rifclark.poly import PolyMD, Rif

SING = (1.0 + 0.0j, 1.0 + 0.0j)


def test_weight_vanishes_quadratically_alpha_one(fav):
    fit = contact.weight_vanish_order(fav, 1.0 + 0.0j, SING)
    assert abs(fit.exponent - 2.0) < 1e-3
    assert fit.rounded == 2
    # W = 1 - cos(theta) = |zeta - 1|^2 / 2 exactly, so the bracket
    # constants both sit at 1/2
    assert abs(fit.c_lower - 0.5) < 1e-6
    assert abs(fit.c_upper - 0.5) < 1e-6
    assert fit.r_squared > 0.999999


def test_weight_vanish_order_other_alphas(fav):
    for alpha in (1.0j, np.exp(1j * np.pi / 3)):
        fit = contact.weight_vanish_order(fav, alpha, SING)
        assert abs(fit.exponent - 2.0) < 0.01
        assert fit.rounded == 2
        assert 0.0 < fit.c_lower <= fit.c_upper
        assert fit.r_squared >= 0.999
        # both one-sided fits agree on the exponent
        s1, s2 = fit.side_exponents
        assert abs(s1 - s2) < 0.05


def test_contact_exponent_is_alpha_independent(fav):
    exps = [contact.weight_vanish_order(fav, a, SING).exponent
            for a in (1.0 + 0.0j, 1.0j, np.exp(0.4j))]
    assert max(exps) - min(exps) < 0.01


def test_squared_rif_contact_at_all_corners(squared):
    fit = contact.weight_vanish_order(squared, 1.0j, (1.0 + 0.0j, 1.0 + 0.0j))
    assert fit.rounded == 2 and abs(fit.exponent - 2.0) < 0.05
    fit = contact.weight_vanish_order(squared, 1.0j,
                                      (-1.0 + 0.0j, -1.0 + 0.0j))
    assert fit.rounded == 2 and abs(fit.exponent - 2.0) < 0.05


def test_branch_contact_order(fav):
    order = contact.branch_contact_order(fav, SING, 1.0j, np.exp(0.4j))
    assert order.rounded == 2
    assert abs(order.exponent - 2.0) < 0.05
    assert order.r_squared >= 0.999


def test_branch_contact_order_rejects_exceptional(fav):
    with pytest.raises(ValueError):
        contact.branch_contact_order(fav, SING, -1.0 + 0.0j, 1.0j)
    with pytest.raises(ValueError):
        contact.branch_contact_order(fav, SING, 1.0j, 1.0j)


def test_contact_fits_run_on_the_slice_kernel(fav, squared, monkeypatch):
    # the fits take roots and weights from levelset._slice_atoms (the
    # full-tensor weight evaluation is a test oracle, not in the package)
    calls = []

    def counted(*args):
        calls.append(1)
        return levelset._slice_atoms(*args)

    monkeypatch.setattr(contact, "_slice_atoms", counted)
    for phi in (fav, squared):
        before = len(calls)
        rep = contact.contact_report(phi, SING, [1.0j, np.exp(0.7j)])
        assert rep.fits and all(f.rounded == 2 for f in rep.fits)
        assert len(calls) > before
        before = len(calls)
        assert contact.weight_vanish_order(phi, 1.0j, SING).rounded == 2
        assert len(calls) > before
        before = len(calls)
        order = contact.branch_contact_order(phi, SING, 1.0j, np.exp(0.4j))
        assert order.rounded == 2
        assert len(calls) > before


def test_nontangential_value_at_singularity(fav):
    nt = contact.nontangential_value(fav, SING)
    assert abs(nt - (-1.0)) < 1e-9


def test_nontangential_value_at_regular_point(fav):
    # at a regular boundary point the limit is just the boundary value,
    # projected onto the circle
    z = (np.exp(0.5j), np.exp(1.2j))
    nt = contact.nontangential_value(fav, z)
    assert abs(nt - complex(fav(*z))) < 1e-8
    assert nt == complex(fav(*z)) / abs(complex(fav(*z)))
    # inside the bidisk the limit is phi there, which is not unimodular
    with pytest.raises(NonConvergent):
        contact.nontangential_value(fav, (0.5, 0.5j))


@pytest.mark.parametrize("n1, n2, seed", [(1, 2, 3), (2, 2, 5)])
def test_alpha0_is_on_the_circle(n1, n2, seed):
    # the nontangential value at a planted torus zero comes back projected
    # onto the circle, as does any alpha a builder takes, so q - alpha0 p
    # is the level polynomial of a unimodular value: the build at alpha0
    # keeps its mass to rounding (off the circle by 6.7e-16 and 2e-15,
    # these draws read mass gaps of 2.2e-15 and 3.6e-15)
    eps = np.finfo(float).eps
    phi = catalog.random_rif(n1, n2, seed, singular=True)
    alpha0 = contact.nontangential_value(phi, catalog.planted_zero(seed))
    assert abs(abs(alpha0) - 1.0) <= 2 * eps
    m = clark.build_measure(phi, alpha0, 4096)
    assert abs(clark.total_mass(m) / clark.expected_mass(phi, alpha0)
               - 1.0) <= 4 * eps
    for alpha in (1.0 + 5e-10, alpha0 * (1.0 - 3e-10)):
        assert abs(abs(levelset._unimodular_alpha(alpha)) - 1.0) <= 2 * eps


def test_nontangential_value_in_three_variables():
    phi3 = catalog.tridisk_rif(3.0)
    nt = contact.nontangential_value(phi3, (1.0, 1.0, 1.0))
    assert abs(nt - (-1.0)) < 1e-12


def test_nontangential_value_exact_at_catalog_singularities(corpus,
                                                            monkeypatch):
    # a Rif's limit is the ratio of radial Taylor coefficients at r = 1,
    # with no extrapolation
    def refuse(*args):
        raise AssertionError("a Rif went through Richardson")

    monkeypatch.setattr(contact, "_richardson_limit", refuse)
    for name in ("fav", "squared", "product"):
        phi = corpus[name]
        for sing in levelset.find_singularities(phi):
            nt = contact.nontangential_value(phi, sing)
            assert abs(nt - (-1.0)) < 1e-12, (name, sing)


def test_nontangential_value_of_a_square():
    # p = (2 - z1 - z2)^2: the first radial derivative vanishes at (1, 1)
    # too, and the second-order ratio gives (-1)^2
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0], c[1, 0], c[0, 1] = 4.0, -4.0, -4.0
    c[2, 0], c[0, 2], c[1, 1] = 1.0, 1.0, 2.0
    nt = contact.nontangential_value(Rif(PolyMD(c)), SING)
    assert abs(nt - 1.0) < 1e-12


def test_nontangential_value_of_a_callable_extrapolates(fav, monkeypatch):
    calls = []
    richardson = contact._richardson_limit

    def counted(*args):
        calls.append(1)
        return richardson(*args)

    monkeypatch.setattr(contact, "_richardson_limit", counted)
    nt = contact.nontangential_value(lambda z1, z2: fav(z1, z2), SING)
    assert calls == [1] and abs(nt - (-1.0)) < 1e-9
    contact.nontangential_value(fav, SING)
    assert calls == [1]
    with pytest.raises(NonConvergent):
        contact.nontangential_value(lambda z1, z2: 0.5 * fav(z1, z2), SING)


def test_fit_degenerate_at_non_vanishing_point(fav):
    # (zeta, g(zeta)) away from the singularity: the weight tends to a
    # positive constant, so no power law fits
    with pytest.raises((FitDegenerate, ValueError)):
        contact.weight_vanish_order(fav, 1.0j, (np.exp(2.0j), np.exp(1.0j)))


def test_contact_report_structure(fav):
    rep = contact.contact_report(fav, SING, [1.0 + 0.0j, 1.0j])
    assert abs(rep.nontangential_value - (-1.0)) < 1e-8
    assert len(rep.fits) == 2
    obj = contact.report_to_obj(rep)
    assert obj["fits"][0]["rounded"] == 2
    assert obj["location"][0] == 1.0 + 0.0j
