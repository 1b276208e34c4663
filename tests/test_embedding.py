import numpy as np
import pytest

from rifclark import catalog, clark, contact, embedding, levelset
from rifclark.errors import DenominatorVanishes

GENERIC = np.exp(0.7j)


def _sample_points(rng, count, radius=0.6):
    r = radius * np.sqrt(rng.uniform(size=(count, 2)))
    a = 2 * np.pi * rng.uniform(size=(count, 2))
    z = r * np.exp(1j * a)
    return list(zip(z[:, 0], z[:, 1]))


def test_gram_isometry_fav(fav, fav_measure_alphai):
    rng = np.random.default_rng(5)
    rep = embedding.gram_isometry_check(fav, 1.0j, _sample_points(rng, 8),
                                        fav_measure_alphai)
    assert rep.max_abs_error < 1e-10


def test_gram_isometry_exceptional_includes_lines(squared):
    m = clark.build_measure(squared, -1.0 + 0.0j, 1024)
    rng = np.random.default_rng(7)
    rep = embedding.gram_isometry_check(squared, -1.0 + 0.0j,
                                        _sample_points(rng, 6), m)
    assert rep.max_abs_error < 1e-12


def test_gram_rejects_alpha_mismatch(fav, fav_measure_alphai):
    with pytest.raises(ValueError):
        embedding.gram_isometry_check(fav, 1.0 + 0.0j, [(0.1, 0.2)],
                                      fav_measure_alphai)


@pytest.mark.parametrize("name", ["squared", "diagonal", "monomial"])
def test_gram_rejects_phi_mismatch(request, name, fav_measure_alphai):
    # another phi's kernels against fav's measure would read as a large
    # quadrature error
    with pytest.raises(ValueError, match="phi does not match"):
        embedding.gram_isometry_check(request.getfixturevalue(name), 1.0j,
                                      [(0.1, 0.2)], fav_measure_alphai)


def test_gram_accepts_phi_of_a_measure_read_back(fav, fav_measure_alphai):
    m = clark.measure_from_json(clark.measure_to_json(fav_measure_alphai))
    rep = embedding.gram_isometry_check(fav, 1.0j, [(0.1, 0.2)], m)
    assert rep.max_abs_error < 1e-10


def test_gram_rejects_boundary_points(fav, fav_measure_alphai):
    with pytest.raises(ValueError):
        embedding.gram_isometry_check(fav, 1.0j, [(1.0, 0.0)],
                                      fav_measure_alphai)


PARTS = ("r1_num", "r1_den", "r2_num", "r2_den")


def test_gram_check_refuses_a_nan_alpha(fav, fav_measure_alphai):
    # NaN compares False with 1e-9, so only a match test it fails refuses it
    with pytest.raises(ValueError, match="alpha does not match"):
        embedding.gram_isometry_check(fav, complex(np.nan, 0.0),
                                      [(0.1, 0.2)], fav_measure_alphai)


def test_conj_rational_fav_generic(fav):
    cr = embedding.conj_rational(fav, GENERIC)
    assert max(cr.max_residual) < 1e-10
    # spot-check R1 against conj on a fresh level-set point
    z1 = np.exp(0.9j)
    g = (2 * GENERIC + (1 - GENERIC) * z1) / (2 * z1 - 1 + GENERIC)
    assert abs(cr.r1(z1, g) - np.conj(z1)) < 1e-10
    assert abs(cr.r2(z1, g) - np.conj(g)) < 1e-10


def test_conj_rational_monomial(monomial):
    cr = embedding.conj_rational(monomial, GENERIC)
    assert max(cr.max_residual) < 1e-12
    # for z1 z2: conj(z2) = alpha^bar z1 on the level set, a polynomial
    z1 = np.exp(1.3j)
    g = GENERIC * np.conj(z1)
    assert abs(cr.r2(z1, g) - np.conj(g)) < 1e-12


@pytest.mark.parametrize("singular", [False, True])
def test_conj_rational_residuals_of_random_draws(singular):
    # conj(zeta_j) = -h2 / h1 from the split of h = q - alpha p holds at
    # every level-set point of the residual grid
    for n1 in (1, 2, 3):
        for n2 in (1, 2, 3):
            for seed in (0, 1, 2):
                phi = catalog.random_rif(n1, n2, seed, singular=singular)
                cr = embedding.conj_rational(phi, GENERIC)
                assert max(cr.max_residual) <= 1e-10, (n1, n2, seed)


def test_conj_rational_projects_alpha_onto_the_circle(fav):
    # 1e-6 off the circle is refused; 1e-12 off is projected before the
    # level tensor is formed, so the stored alpha and the rational
    # functions are those of alpha / |alpha|
    with pytest.raises(ValueError, match="unimodular"):
        embedding.conj_rational(fav, GENERIC * (1.0 + 1e-6))
    alpha = GENERIC * (1.0 + 1e-12)
    cr, on = (embedding.conj_rational(fav, a) for a in (alpha,
                                                         alpha / abs(alpha)))
    assert cr.alpha == on.alpha == alpha / abs(alpha)
    for key in PARTS:
        assert np.array_equal(getattr(cr, key), getattr(on, key)), key


def _trimmed(coeffs):
    """``coeffs`` without its trailing slabs, on each axis, of modulus at
    most 1e-14 times its largest coefficient."""
    scale = np.max(np.abs(coeffs))
    for axis in range(coeffs.ndim):
        keep = coeffs.shape[axis]
        while keep > 1 and np.max(np.abs(np.take(
                coeffs, keep - 1, axis=axis))) <= 1e-14 * scale:
            keep -= 1
        coeffs = np.take(coeffs, range(keep), axis=axis)
    return coeffs


def _conj_cases():
    """(phi, alpha) of the catalog and of random draws, strict and
    singular, at five alphas and each singular draw at its alpha0."""
    alphas = (1.0, -1.0, 1.0j, np.exp(0.7j), np.exp(2.5j))
    for phi in (catalog.monomial_rif(), catalog.simple_singular_rif(),
                catalog.squared_singular_rif(), catalog.product_singular_rif(),
                catalog.diagonal_rif(), catalog.contact_four_rif()):
        for alpha in alphas:
            yield phi, alpha
    for n1 in (1, 2, 3):
        for n2 in (1, 2, 3):
            for seed in (0, 1, 2):
                for singular in (False, True):
                    phi = catalog.random_rif(n1, n2, seed, singular=singular)
                    for alpha in alphas:
                        yield phi, alpha
                    if singular:
                        yield phi, contact.nontangential_value(
                            phi, catalog.planted_zero(seed))


def test_conj_rational_parts_are_the_level_polynomial_untrimmed():
    # each part is its block of h = q - alpha p as it is: the trimmed
    # coefficients (trailing slabs at most 1e-14 of the largest dropped)
    # followed by zeros
    built = 0
    for phi, alpha in _conj_cases():
        try:
            cr = embedding.conj_rational(phi, alpha)
        except DenominatorVanishes:
            continue
        h = phi.level_coeffs(cr.alpha)
        want = {"r1_num": -h[1:], "r1_den": h[:1], "r2_num": -h[:, 1:],
                "r2_den": h[:, :1]}
        for key in PARTS:
            part, ref = getattr(cr, key), _trimmed(want[key])
            assert type(part) is np.ndarray and part.shape == want[key].shape
            head = tuple(slice(n) for n in ref.shape)
            assert np.array_equal(part[head], ref), key
            rest = part.copy()
            rest[head] = 0.0
            assert not rest.any(), key
        built += 1
    assert built > 200


def test_conj_rational_refuses_three_variables():
    with pytest.raises(ValueError, match="two-variable"):
        embedding.conj_rational(catalog.tridisk_rif(4.0), GENERIC)


def test_gram_check_refuses_no_points(fav, fav_measure_alphai):
    with pytest.raises(ValueError, match="at least one point"):
        embedding.gram_isometry_check(fav, 1.0j, [], fav_measure_alphai)


@pytest.mark.parametrize("scale", [2.0 ** -50, 1.0, 2.0 ** 50])
@pytest.mark.parametrize("size", [0.0, 1e-12])
@pytest.mark.parametrize("axis", [0, 1])
def test_vanishing_conjugate_denominator_is_refused(scale, size, axis):
    # h(0, .) or h(., 0) is zero at the degree-drop tolerance of h's own
    # scale, whatever that scale is
    h = np.array([[size, -size], [0.5 * size, 2.0]], dtype=complex) * scale
    with pytest.raises(DenominatorVanishes, match="identically zero"):
        embedding._check_denominators(h if axis == 0 else h.T)


def test_conj_rational_exceptional_raises(fav):
    # at alpha = -1 the defining denominator acquires a unimodular root
    with pytest.raises(DenominatorVanishes):
        embedding.conj_rational(fav, -1.0 + 0.0j)


@pytest.mark.parametrize("delta", [1e-5, 1e-6])
def test_conj_rational_near_exceptional_names_rounding(fav, delta):
    # at alpha = e^{i pi (1 + delta)} the denominator root sits within
    # CIRCLE_TOL of the circle; the refusal stays (without it the residuals
    # grow to 4.5e-4 at delta = 1e-6) but no longer calls alpha exceptional
    # outright, for no line is found and the density verdict is unitary.
    # At 1e-6 the build itself misses its mass guard (ROADMAP item 2c), so
    # the verdict there is read from its source, detect_lines.  The message
    # gives the root's distance to the circle, about (pi delta)^2 / 8
    alpha = np.exp(1j * np.pi * (1.0 + delta))
    dist = "1.23e-10" if delta == 1e-5 else r"1\.2\de-12"
    with pytest.raises(DenominatorVanishes, match=(
            rf"denominator root with \|modulus - 1\| = {dist} within "
            r"CIRCLE_TOL = 1e-09 of the closed disk: alpha is exceptional or "
            r"within rounding of an exceptional value$")):
        embedding.conj_rational(fav, alpha)
    assert levelset.detect_lines(fav, alpha) == []
    if delta == 1e-5:
        rep = embedding.density_distance(clark.build_measure(fav, alpha,
                                                             1024), 4)
        assert rep.verdict == "consistent_with_unitary"


def test_density_distance_generic_squared(squared):
    m = clark.build_measure(squared, 1.0 + 0.0j, 2048)
    rep = embedding.density_distance(m, 4)
    assert rep.distance_zbar2 < 1e-6
    assert rep.distance_zbar1 < 1e-6
    assert rep.verdict == "consistent_with_unitary"


def test_density_distance_exceptional_squared(squared):
    m = clark.build_measure(squared, -1.0 + 0.0j, 2048)
    last = None
    for D in (1, 2, 4, 8):
        rep = embedding.density_distance(m, D)
        assert rep.distance_zbar2 >= 0.69
        if last is not None:
            assert rep.distance_zbar2 <= last + 1e-12
        last = rep.distance_zbar2
    assert rep.verdict == "consistent_with_nonunitary"


def _lsq_distances(m, D):
    """L^2(sigma) distances from conj(zeta2) and conj(zeta1) to the span of
    zeta1^a zeta2^b, 0 <= a, b <= D, by a weighted least-squares fit over
    the measure's atoms (it has no lines)."""
    assert not m.lines
    z1 = np.broadcast_to(m.base[:, 0], m.atoms.shape).ravel()
    z2 = m.atoms.ravel()
    sw = np.sqrt(m.weights.ravel())
    a, b = np.meshgrid(np.arange(D + 1), np.arange(D + 1), indexing="ij")
    V = sw[:, None] * z1[:, None] ** a.ravel() * z2[:, None] ** b.ravel()
    out = []
    for v in (np.conj(z2), np.conj(z1)):
        t = sw * v
        x = np.linalg.lstsq(V, t, rcond=None)[0]
        out.append(np.linalg.norm(t - V @ x))
    return out


@pytest.mark.parametrize("name", ["fav", "squared"])
@pytest.mark.parametrize("D", [4, 6])
def test_density_distance_matches_least_squares(request, name, D):
    # at a non-real alpha the moments are complex, so a projection with the
    # Gram in place of its conjugate reads 0.78-0.96 here
    m = clark.build_measure(request.getfixturevalue(name), GENERIC, 2048)
    rep = embedding.density_distance(m, D)
    d2, d1 = _lsq_distances(m, D)
    assert abs(rep.distance_zbar2 - d2) < 1e-9
    assert abs(rep.distance_zbar1 - d1) < 1e-9


def test_density_distance_monomial_exact(monomial):
    # sigma for z1 z2 is arclength on zeta2 = alpha conj(zeta1); already
    # at degree 1 the monomial zeta1 equals alpha conj(zeta2) in L^2
    m = clark.build_measure(monomial, GENERIC, 512)
    rep = embedding.density_distance(m, 1)
    assert rep.distance_zbar2 < 1e-6
    assert rep.distance_zbar1 < 1e-6
    assert rep.verdict == "consistent_with_unitary"


def _verdict_builds(corpus):
    for name in ("fav", "squared", "product", "diagonal"):
        for alpha in (-1.0 + 0.0j, GENERIC, 1.0j):
            yield name, corpus[name], alpha
    for n1, n2 in ((1, 1), (2, 1), (1, 2)):
        for seed in (1, 2, 3):
            phi = catalog.random_rif(n1, n2, seed, singular=True)
            alpha0 = contact.nontangential_value(phi,
                                                 catalog.planted_zero(seed))
            for alpha in (alpha0, GENERIC):
                yield (n1, n2, seed), phi, alpha


def test_density_verdict_is_the_lines(corpus):
    # lines (either axis) mean not unitary: conj_rational refuses, and the
    # distance on a line's axis stays at or above sqrt of its summed
    # constants; no lines mean conj_rational exists, and "unitary"
    with_lines = 0
    for tag, phi, alpha in _verdict_builds(corpus):
        lines = levelset.detect_lines(phi, alpha)
        with_lines += bool(lines)
        try:
            embedding.conj_rational(phi, alpha)
            refused = False
        except DenominatorVanishes:
            refused = True
        assert refused == bool(lines), tag
        m = clark.build_measure(phi, alpha, 2048)
        bound = [np.sqrt(sum(ln.constant for ln in lines if ln.axis == ax))
                 for ax in (1, 2)]
        for D in (4, 8):
            rep = embedding.density_distance(m, D)
            assert rep.verdict == ("consistent_with_nonunitary" if lines
                                   else "consistent_with_unitary"), (tag, D)
            assert rep.distance_zbar2 >= bound[0] - 1e-12, (tag, D)
            assert rep.distance_zbar1 >= bound[1] - 1e-12, (tag, D)
    assert with_lines >= 10  # both outcomes are exercised


@pytest.mark.parametrize("name", ["fav", "squared"])
def test_density_verdict_generic_with_slow_decay(request, name):
    # conj_rational's pole sits at modulus 1.0125 for fav at e^{0.9 pi i},
    # so the distances are still large at degree 8 with no line in sight
    alpha = np.exp(0.9j * np.pi)
    m = clark.build_measure(request.getfixturevalue(name), alpha, 2048)
    rep = embedding.density_distance(m, 8)
    assert rep.distance_zbar2 > 0.3
    assert rep.verdict == "consistent_with_unitary"


def test_density_degree_validation(fav_measure_alphai):
    with pytest.raises(ValueError):
        embedding.density_distance(fav_measure_alphai, 0)
