import numpy as np
import pytest

from rifclark import catalog, clark, contact, levelset
from rifclark.poly import stability_check

# bidegrees uniform in (1..3)^2, one per seed
DRAWS = [(int(n1), int(n2), 100 + i) for i, (n1, n2) in
         enumerate(np.random.default_rng(12).integers(1, 4, (40, 2)))]


def test_random_rif_is_a_seeded_rif_of_the_bidegree():
    phi = catalog.random_rif(2, 3, 5)
    assert phi.degrees == (2, 3) and phi.den.degrees == (2, 3)
    # det(I - D Delta(0)) = 1
    assert abs(phi.den(0.0, 0.0) - 1.0) < 1e-14
    assert np.array_equal(catalog.random_rif(2, 3, 5).den.coeffs,
                          phi.den.coeffs)
    assert stability_check(phi.den) > 1.0 - 1e-9
    for singular in (False, True):
        phi = catalog.random_rif(2, 1, 9, singular=singular)
        m = clark.build_measure(phi, np.exp(0.7j), 256)
        assert abs(clark.total_mass(m) - clark.expected_mass(phi, m.alpha)) \
            < 1e-10
    with pytest.raises(ValueError):
        catalog.random_rif(0, 2, 1)


def test_contact_four_rif():
    # a stable denominator with one torus zero, at (1, 1), where the
    # nontangential value is -1 and the contact order 4
    phi = catalog.contact_four_rif()
    assert phi.degrees == (2, 1)
    assert stability_check(phi.den) > 1.0 - 1e-9
    (t1, t2), = levelset.find_singularities(phi)
    assert max(abs(t1 - 1.0), abs(t2 - 1.0)) <= 1e-12
    assert abs(contact.nontangential_value(phi, (t1, t2)) + 1.0) <= 1e-12
    m = clark.build_measure(phi, np.exp(0.7j), 256)
    assert abs(clark.total_mass(m) - clark.expected_mass(phi, m.alpha)) \
        < 1e-12


def test_random_singularities_are_found_where_planted():
    # a singular draw has exactly one torus zero, at its planted point,
    # with a unimodular nontangential value there that a two-point radial
    # extrapolation of the plain function confirms, 2 phi(r2 tau) -
    # phi(r1 tau) = lim + O((1 - r)^2); a strict draw has none
    for n1, n2, seed in DRAWS:
        phi = catalog.random_rif(n1, n2, seed, singular=True)
        tau = catalog.planted_zero(seed)
        sings = levelset.find_singularities(phi)
        assert len(sings) == 1, (n1, n2, seed)
        t1, t2 = sings[0]
        assert max(abs(t1 - tau[0]), abs(t2 - tau[1])) <= 1e-9, (n1, n2, seed)
        alpha0 = contact.nontangential_value(phi, sings[0])
        assert abs(abs(alpha0) - 1.0) <= 1e-12
        r1, r2 = 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -21
        radial = 2.0 * phi(*(r2 * np.array(sings[0]))) \
            - phi(*(r1 * np.array(sings[0])))
        assert abs(alpha0 - radial) <= 1e-7
        strict = catalog.random_rif(n1, n2, seed)
        assert levelset.find_singularities(strict) == [], (n1, n2, seed)
