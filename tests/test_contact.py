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
    # W = 1 - cos(theta) = |zeta - 1|^2 / 2 exactly, so the constant is 1/2
    assert abs(fit.constant - 0.5) < 1e-6
    assert fit.exponent == 2.0


def test_weight_vanish_order_other_alphas(fav):
    # along fav's branch w(u) = -u / (1 + 2u / (1 + alpha)) at zeta1 = 1 + u,
    # p = -u - w = -2u^2 / (1 + alpha) + ..., and d/dz2 h = 1 + alpha, so
    # W ~ 2 / |1 + alpha|^2 d^2
    for alpha in (1.0j, np.exp(1j * np.pi / 3), np.exp(2.9j)):
        fit = contact.weight_vanish_order(fav, alpha, SING)
        assert fit.exponent == 2.0 and fit.rounded == 2
        assert abs(fit.constant - 2.0 / abs(1.0 + alpha) ** 2) \
            <= 1e-12 * fit.constant


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
    assert order.exponent == 2.0


def test_branch_contact_order_rejects_exceptional(fav):
    with pytest.raises(ValueError):
        contact.branch_contact_order(fav, SING, -1.0 + 0.0j, 1.0j)
    with pytest.raises(ValueError):
        contact.branch_contact_order(fav, SING, 1.0j, 1.0j)


@pytest.mark.parametrize("name, alphas, k_lo, k_hi", [
    ("simple_singular_rif", (1.0 + 0.0j, 1.0j, np.exp(0.7j)), 8, 12),
    # |p| ~ C d^4 is within a few ulps of its coefficient scale below
    # d = 2^-10, so the slice weights stop there
    ("contact_four_rif", (np.exp(0.7j), np.exp(-1.9j), 1.0j), 6, 10),
])
def test_slice_atom_weights_follow_the_series(name, alphas, k_lo, k_hi):
    # an independent ladder: the slice kernel's weight num / den at the
    # root nearest the singularity, on both sides of it, is C d^K (1 + O(d))
    # with the series' K and C
    phi = getattr(catalog, name)()
    delta = 2.0 ** -np.arange(k_lo, k_hi + 1)
    for alpha in alphas:
        fit = contact.weight_vanish_order(phi, alpha, SING)
        for side in (1, -1):
            zeta1 = np.exp(1j * side * delta)
            roots, num, den, _ = levelset._slice_atoms(phi, alpha,
                                                       zeta1[:, None])
            at = (np.argmin(np.abs(roots - 1.0), axis=0),
                  np.arange(len(delta)))
            ratio = num[at] / den[at] \
                / (fit.constant * np.abs(zeta1 - 1.0) ** fit.rounded)
            assert np.all(np.abs(ratio - 1.0) <= 4.0 * delta), (name, alpha)


def test_contact_order_four():
    # the branches of two alphas agree to third order at (1, 1), and the
    # weights vanish to fourth
    phi = catalog.contact_four_rif()
    alphas = (np.exp(0.7j), np.exp(-1.9j), 1.0j)
    for a1, a2 in zip(alphas, alphas[1:] + alphas[:1]):
        order = contact.branch_contact_order(phi, SING, a1, a2)
        assert order.rounded == 4 and order.exponent == 4.0
        assert contact.weight_vanish_order(phi, a1, SING).rounded == 4


@pytest.mark.parametrize("name", ["simple_singular_rif", "contact_four_rif"])
def test_orders_do_not_depend_on_the_scale_of_p(name):
    # c p gives the same function for any c != 0, so the same orders and
    # constants: the weight series is read against its own rounding floor
    phi = getattr(catalog, name)()
    alpha, alpha2 = np.exp(0.7j), np.exp(-1.9j)
    ref = contact.weight_vanish_order(phi, alpha, SING)
    k = contact.branch_contact_order(phi, SING, alpha, alpha2).rounded
    for scale in (1e-8, 1e8):
        scaled = Rif(PolyMD(scale * phi.den.coeffs))
        fit = contact.weight_vanish_order(scaled, alpha, SING)
        assert fit.rounded == ref.rounded == k
        assert abs(fit.constant - ref.constant) <= 1e-12 * ref.constant
        assert contact.branch_contact_order(scaled, SING, alpha,
                                            alpha2).rounded == k


BIDEGREES = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3))
ALPHA_PAIRS = ((np.exp(0.7j), np.exp(-1.9j)), (np.exp(2.3j), np.exp(-0.4j)))


def test_weight_order_is_the_contact_order_on_random_draws():
    # the paper's relation, at the planted zero of 84 singular draws and
    # two alpha pairs; log-log ladder fits raise on 20 of these 168
    # point-pairs (R^2 below 0.999, or at random_rif(2, 1, 5) no root
    # within 1e-3 of the point), one of them at an alpha 2.2e-4 from
    # alpha0
    for n1, n2 in BIDEGREES:
        for seed in range(1, 13):
            phi = catalog.random_rif(n1, n2, seed, singular=True)
            tau = catalog.planted_zero(seed)
            for a1, a2 in ALPHA_PAIRS:
                k = contact.branch_contact_order(phi, tau, a1, a2).rounded
                assert k == 2, (n1, n2, seed)
                for a in (a1, a2):
                    assert contact.weight_vanish_order(phi, a, tau).rounded \
                        == k, (n1, n2, seed, a)


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


def test_nontangential_value_refuses_p_vanishing_along_the_radius():
    # p = z2 - z1 is zero on the whole radius r (1, 1): every radial
    # coefficient of p vanishes, so there is no first ratio to take
    c = np.zeros((2, 2), dtype=complex)
    c[0, 1], c[1, 0] = 1.0, -1.0
    with pytest.raises(NonConvergent, match="p vanishes along the radius"):
        contact.nontangential_value(Rif(PolyMD(c)), (1.0, 1.0))


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


def test_nontangential_value_exact_at_catalog_singularities(corpus):
    # a Rif's limit is the ratio of radial Taylor coefficients at r = 1,
    # with no extrapolation
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


def test_nontangential_value_refuses_a_plain_callable(fav):
    with pytest.raises(TypeError):
        contact.nontangential_value(lambda z1, z2: fav(z1, z2), SING)


def test_fit_degenerate_at_non_vanishing_point(fav):
    # (zeta, g(zeta)) away from the singularity: p does not vanish there,
    # so the weight tends to a positive constant
    with pytest.raises((FitDegenerate, ValueError)):
        contact.weight_vanish_order(fav, 1.0j, (np.exp(2.0j), np.exp(1.0j)))


def test_contact_report_structure(fav):
    # alpha0 = -1 is exceptional at the singularity and left out
    rep = contact.contact_report(fav, SING, [1.0 + 0.0j, -1.0, 1.0j])
    assert abs(rep.nontangential_value - (-1.0)) < 1e-8
    assert [f.alpha for f in rep.fits] == [1.0, 1.0j]
    with pytest.raises(FitDegenerate):
        contact.weight_vanish_order(fav, -1.0, SING)
    obj = contact.report_to_obj(rep)
    assert set(obj["fits"][0]) == {"alpha", "branch", "exponent", "rounded",
                                   "constant"}
    assert obj["fits"][0]["rounded"] == 2
    assert obj["location"][0] == 1.0 + 0.0j
