import tracemalloc

import numpy as np
import pytest

from conftest import slice_atoms
from rifclark import (catalog, clark, contact, embedding, levelset, poly,
                      polydisk)
from rifclark.errors import (MassGapExceeded, SingularDenominator,
                             UnstableDenominator)
from rifclark.poly import (PolyMD, Rif, _eval_tensor, _polyval_rows,
                           derivative_coeffs, slice_coeffs)
from rifclark.util import unit_circle_points


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


@pytest.mark.parametrize("s", [np.nan, np.inf, 2.9])
def test_family_refuses_s_outside_its_range(s):
    # a NaN s fails every comparison, so the range check is written to
    # pass only inside it
    for f in (polydisk.tridisk_weight, polydisk.tridisk_level):
        with pytest.raises(ValueError):
            f(s, 1.0 + 0.0j, np.exp(0.3j), np.exp(0.5j))


@pytest.mark.parametrize("d", [2, 4])
def test_build_measure_d_refuses_other_dimensions(d):
    with pytest.raises(ValueError, match="exactly three variables"):
        polydisk.build_measure_d(catalog.monomial_rif(d), 1.0j, 8)


@pytest.mark.parametrize("alpha", [np.nan, complex(np.nan, 0.0), np.inf])
def test_tridisk_refuses_non_finite_alpha(alpha):
    with pytest.raises(ValueError):
        polydisk.build_measure_d(catalog.tridisk_rif(3.5), alpha, 8)
    for f in (polydisk.tridisk_weight, polydisk.tridisk_level):
        with pytest.raises(ValueError):
            f(3.5, alpha, np.exp(0.3j), np.exp(0.5j))
    with pytest.raises(ValueError):
        polydisk.verify_poisson_d(3.5, alpha, (0.1, 0.2, 0.3), 16)


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


def test_grids_below_one_node_are_refused():
    with pytest.raises(ValueError, match="grid_n"):
        polydisk.build_measure_d(catalog.tridisk_rif(3.5), 1.0j, 0)
    with pytest.raises(ValueError, match="grid_n"):
        polydisk.verify_poisson_d(3.5, 1.0j, (0.1, 0.2, 0.3), 0)
    with pytest.raises(ValueError, match="grid_n"):
        polydisk.level_surface_rows(3.5, 1.0j, 0)


def test_build_measure_d_matches_closed_form():
    s, alpha = 4.0, np.exp(0.9j)
    phi = catalog.tridisk_rif(s)
    m = polydisk.build_measure_d(phi, alpha, 64)
    assert m.base.shape == (64 * 64, 2)
    assert m.atoms.shape == m.weights.shape == (1, 64 * 64)
    assert np.max(np.abs(np.abs(m.base) - 1.0)) < 1e-12
    assert np.max(np.abs(np.abs(m.atoms) - 1.0)) < 1e-12
    z1, z2 = m.base.T
    assert np.max(np.abs(64 * 64 * m.weights[0]
                         - closed_form_weight(s, alpha, z1, z2))) < 1e-8
    assert abs(clark.total_mass(m) - 1.0) < 1e-8


def test_build_measure_d_refuses_boundary_stability():
    phi = catalog.tridisk_rif(3.0)  # denominator vanishes at (1,1,1)
    with pytest.raises(UnstableDenominator):
        polydisk.build_measure_d(phi, 1.0j, 32)


def count_certificates(monkeypatch):
    calls = []
    check = poly.stability_check

    def counted(p):
        calls.append(p.coeffs.shape)
        return check(p)

    monkeypatch.setattr(poly, "stability_check", counted)
    return calls


def test_build_measure_d_certifies_each_rif_once(monkeypatch):
    calls = count_certificates(monkeypatch)
    phi = catalog.tridisk_rif(4.0)
    for alpha in (np.exp(0.9j), 1.0j):
        polydisk.build_measure_d(phi, alpha, 16)
    assert calls == [(2, 2, 2)]
    # the certificate is kept on the Rif object: an equal denominator in a
    # new object is certified anew
    polydisk.build_measure_d(catalog.tridisk_rif(4.0), -1.0 + 0.0j, 16)
    assert len(calls) == 2
    polydisk.build_measure_d(phi, -1.0j, 16)
    assert len(calls) == 2


def test_build_measure_d_refuses_on_every_call(monkeypatch):
    calls = count_certificates(monkeypatch)
    for phi in (catalog.tridisk_rif(3.0),
                Rif(PolyMD(np.array([[[1.0, 0.0], [0.0, 0.0]],
                                     [[0.0, 0.0], [0.0, 2.0]]])))):
        for _ in range(2):
            with pytest.raises(UnstableDenominator):
                polydisk.build_measure_d(phi, 1.0j, 16)
    assert len(calls) == 2


@pytest.mark.parametrize("coeffs, modulus", [
    ({(0, 0, 0): 1.0, (1, 1, 1): 2.0}, "0.5"),  # 1 + 2 z1 z2 z3
    ({(0, 0, 0): 2.5, (1, 0, 0): -1.0, (0, 1, 0): -1.0, (0, 0, 1): -1.0},
     "0.5"),  # 2.5 - z1 - z2 - z3
    ({(0, 0, 0): 3.0, (1, 0, 0): -1.0, (0, 1, 0): -1.0, (0, 0, 1): -1.0},
     "1"),  # phi_3's denominator
])
def test_tridisk_refusal_states_the_least_root_modulus(coeffs, modulus):
    # a modulus, not a signed distance to the boundary: 0.5 for zeros inside
    c = np.zeros((2, 2, 2), dtype=complex)
    for j, v in coeffs.items():
        c[j] = v
    with pytest.raises(UnstableDenominator,
                       match=rf"slices is {modulus}, not above 1 \+"):
        clark.build_measure(Rif(PolyMD(c)), 1.0j, 16)


def test_poisson_identity_three_variables():
    rep = polydisk.verify_poisson_d(4.0, np.exp(0.9j),
                                    (0.3 + 0.2j, -0.4j, 0.25), 256)
    assert rep.rel_err < 1e-10


def test_poisson_identity_s3_with_refinement():
    # far from alpha = -1 the plain periodic rule is exact to rounding,
    # and the refined window would add 1.8e-6
    rep = polydisk.verify_poisson_d(3.0, 1.0j, (0.5, 0.5, 0.5), 512)
    assert rep.rel_err < 1e-14
    # next to -1 the window runs: 6.9e-6, where the plain rule reads 2.1e-3
    z = (0.1 + 0.4j, 0.3, -0.2j)
    rep = polydisk.verify_poisson_d(3.0, np.exp(0.941j * np.pi), z, 512)
    assert rep.rel_err < 1e-5
    # at |alpha + 1| = 0.45 the window runs up to N = 1024; at N = 2048
    # the plain rule is exact to rounding, and the window would add 4.6e-7
    z = (0.3, -0.2j, 0.1 + 0.4j)
    rep = polydisk.verify_poisson_d(3.0, np.exp(0.855j * np.pi), z, 2048)
    assert rep.rel_err < 1e-14


def test_poisson_identity_three_variables_refuses_points_near_alpha():
    # phi_4(r, r, r) = 1 - 9 (1 - r) + O((1 - r)^2): at r = 1 - 1e-7 phi
    # lies 9.0e-7 from alpha = 1, inside MIN_ALPHA_DIST
    r = 1.0 - 1e-7
    with pytest.raises(ValueError, match="too close to alpha"):
        polydisk.verify_poisson_d(4.0, 1.0, (r, r, r), 64)


def _meshgrid_poisson_rhs(s, alpha, z, N):
    """verify_poisson_d's right side, every integrand on full meshgrids."""
    def values(g):
        T1, T2 = np.meshgrid(g, g, indexing="ij")
        z1, z2 = np.exp(1j * T1), np.exp(1j * T2)
        psi = polydisk.tridisk_level(s, alpha, z1, z2)
        out = polydisk.tridisk_weight(s, alpha, z1, z2)
        for zeta, w in zip((z1, z2, psi), z):
            out = out * (1.0 - abs(w) ** 2) / np.abs(zeta - w) ** 2
        return out

    dtheta = 2.0 * np.pi / N
    rhs = float(np.mean(values(dtheta * np.arange(N))))
    # the 8x-refined window around (1, 1)
    if s == 3.0 and abs(alpha + 1.0) < polydisk.WINDOW_DIST * N ** -0.4:
        k = int(np.ceil(0.5 / dtheta))
        for step, sign in ((1, 1.0), (8, -1.0)):
            g = np.arange(-k * 8, k * 8 + 1, step) * (dtheta / 8.0)
            wq = np.ones(len(g))
            wq[0] = wq[-1] = 0.5
            cell = step * dtheta / 8.0 / (2.0 * np.pi)
            rhs += sign * float(np.real(
                (wq[:, None] * wq[None, :] * values(g)).sum())) * cell * cell
    return rhs


@pytest.mark.parametrize("s, alpha, z", [
    (3.5, np.exp(0.9j), (0.3, -0.2j, 0.1 + 0.4j)),
    (3.0, 1.0j, (0.5, 0.5, 0.5)),  # s = 3 far from -1: no window
    (3.0, np.exp(0.941j * np.pi), (0.3, -0.2j, 0.1 + 0.4j)),  # the window
    (6.0, np.exp(-0.3j), (0.85j, -0.6 + 0.5j, 0.7)),
    (3.05, np.exp(0.941j * np.pi), (0.3, -0.2j, 0.1 + 0.4j)),
    (4.0, np.exp(2.5j), (0.6 + 0.6j, 0.6 + 0.6j, -0.85 + 0.1j)),
    (3.3, np.exp(0.4j), (0.88, 0.88, 0.88j)),
    (3.01, -1.0, (0.3 + 0.2j, -0.1 + 0.5j, 0.2 - 0.3j)),
])
def test_poisson_d_separable_grid_matches_meshgrid(s, alpha, z):
    rep = polydisk.verify_poisson_d(s, alpha, z, 512)
    assert abs(rep.rhs - _meshgrid_poisson_rhs(s, alpha, np.array(z), 512)) \
        <= 1e-15


def test_poisson_d_near_the_corner_matches_meshgrid():
    # next to the singular corner (s = 3, alpha = -1) the integrand peaks
    # at (1, 1), and the sum, 3.87, carries a few hundred eps of rounding
    s, alpha, z = 3.001, np.exp(0.99j * np.pi), (0.88, 0.88, 0.88j)
    rep = polydisk.verify_poisson_d(s, alpha, z, 512)
    ref = _meshgrid_poisson_rhs(s, alpha, np.array(z), 512)
    assert abs(rep.rhs - ref) <= 1e-13 * abs(ref)


def test_poisson_d_refuses_the_singular_corner():
    # at s = 3, alpha = -1 the family's denominator vanishes at (1, 1),
    # a node of every grid; the guard runs on each block of rows, of the
    # coarse grid and of the benchmark's grid alike
    for N in (64, 512):
        with pytest.raises(SingularDenominator):
            polydisk.verify_poisson_d(3.0, -1, (0.1, 0.2, 0.3), N)


def test_poisson_d_refuses_a_nan_point():
    # NaN compares False with 1, so only a test it fails refuses it
    with pytest.raises(ValueError, match="interior point"):
        polydisk.verify_poisson_d(3.5, 1j, (np.nan, 0.1, 0.2), 32)


@pytest.mark.parametrize("s", [3.3, 3.6])
def test_poisson_d_unchecked_rows_match_brute_force(s):
    # for s > 3 the denominator is at least s - 3 on the torus, so the
    # guard is skipped; the sum still equals the plain tensor sum of the
    # family's closed forms (_family, which checks every node)
    alpha, z, N = np.exp(2.2j), np.array([0.4j, -0.3 + 0.2j, 0.5]), 256
    zg = np.exp(2j * np.pi * np.arange(N) / N)
    z1, z2 = np.meshgrid(zg, zg, indexing="ij")
    psi, w = polydisk._family(s, alpha, z1, z2)
    brute = np.mean(w * np.prod([(1 - abs(b) ** 2) / np.abs(a - b) ** 2
                                 for a, b in zip((z1, z2, psi), z)], axis=0))
    rep = polydisk.verify_poisson_d(s, alpha, z, N)
    assert abs(rep.rhs - brute) <= 1e-12 * abs(brute)


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


def sheets_rif(s, k):
    """Denominator s - z1 - z2 - z3^k: k roots in z3 over every slice."""
    c = np.zeros((2, 2, k + 1), dtype=complex)
    c[0, 0, 0] = s
    c[1, 0, 0] = c[0, 1, 0] = c[0, 0, k] = -1.0
    return Rif(PolyMD(c))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_build_measure_d_base_is_the_trig_grid(k):
    # the tensor grid comes from the shared table of roots of unity, bit
    # for bit the meshgrid of the trig grid, and stays the measure's own
    zg = unit_circle_points(2 * np.pi * np.arange(16) / 16)
    z1, z2 = np.meshgrid(zg, zg, indexing="ij")
    m = polydisk.build_measure_d(sheets_rif(3.6, k), np.exp(0.7j), 16)
    want = np.stack([z1.ravel(), z2.ravel()], axis=-1)
    assert np.array_equal(m.base.view(np.uint64), want.view(np.uint64))
    assert m.base.flags.writeable


@pytest.mark.parametrize("k", [2, 3])
def test_build_measure_d_mass_several_sheets(k):
    phi = sheets_rif(3.5, k)
    alpha = np.exp(0.4j)
    m = polydisk.build_measure_d(phi, alpha, 64)
    assert m.base.shape == (64 * 64, 2)
    assert m.atoms.shape == m.weights.shape == (k, 64 * 64)
    z1, z2 = (np.broadcast_to(z, m.atoms.shape) for z in m.base.T)
    assert np.max(np.abs(phi(z1, z2, m.atoms) - alpha)) < 1e-12
    assert abs(clark.total_mass(m)
               - clark.expected_mass(phi, alpha)) < 1e-10


def test_tridisk_measures_refuse_density_and_two_coordinate_gram_points():
    # the paper's two-variable unitarity theorem is density_distance's
    # subject, so it refuses a tridisk measure; the Gram check takes one,
    # with points of three coordinates
    phi = sheets_rif(3.5, 2)
    alpha = np.exp(0.7j)
    m = polydisk.build_measure_d(phi, alpha, 16)
    with pytest.raises(ValueError, match="density_distance needs a "
                                         "two-variable measure"):
        embedding.density_distance(m, 2)
    with pytest.raises(ValueError, match="Gram isometry check needs points "
                                         "of 3 coordinates"):
        embedding.gram_isometry_check(phi, alpha, [(0.1, 0.2)], m)


@pytest.mark.parametrize("s, alpha", [(3.6, np.exp(0.9j)), (4.0, 1j)])
def test_tridisk_gram_isometry(s, alpha):
    # the model Gram in three variables, one Szego factor per coordinate,
    # against the measure's sum: the 128-point rule is exact to rounding
    # for kernels within radius 0.5 (6.7e-16 and 8.4e-14 here)
    phi = catalog.tridisk_rif(s)
    m = polydisk.build_measure_d(phi, alpha, 128)
    rng = np.random.default_rng(5)
    w = 0.5 * np.sqrt(rng.uniform(size=(6, 3))) * np.exp(
        2j * np.pi * rng.uniform(size=(6, 3)))
    rep = embedding.gram_isometry_check(phi, alpha, w, m)
    assert rep.gram_embedded.shape == (6, 6)
    assert rep.max_abs_error <= 1e-12


def _five_tridisk_builds():
    yield "phi_3.3", catalog.tridisk_rif(3.3)
    yield "phi_4", catalog.tridisk_rif(4.0)
    for k in (1, 2, 3):
        yield f"sheets(3.5, {k})", sheets_rif(3.5, k)


@pytest.mark.parametrize("name, phi", list(_five_tridisk_builds()))
def test_tridisk_builds_meet_the_exact_oracles(name, phi):
    # the Poisson sum, the moments against the 3-D power-series division
    # and the mixed moments, through the two-variable bodies.  The points
    # lie within radius 0.5, where the 128-point rule is exact to rounding:
    # phi_3.3, whose |p| >= 0.3 on the torus is the least, reads 2.6e-16,
    # 1.0e-13 within 0.6 and 6e-11 within 0.7 (4.2e-16, 7e-16 at N = 256)
    m = polydisk.build_measure_d(phi, np.exp(0.7j), 128)
    rng = np.random.default_rng(3)
    z = 0.5 * np.sqrt(rng.uniform(size=(8, 3))) * np.exp(
        2j * np.pi * rng.uniform(size=(8, 3)))
    assert clark.verify_poisson(m, z).max_rel_err <= 1e-13, name
    assert clark.moment_residual(m, 6) <= 1e-13, name


@pytest.mark.parametrize("s", [3.3, 4.0])
def test_tridisk_poisson_matches_the_closed_form_check(s):
    # clark.verify_poisson on a built phi_s against the closed-form weight
    # sum of verify_poisson_d at the same point and grid
    alpha, N = np.exp(0.7j), 128
    m = polydisk.build_measure_d(catalog.tridisk_rif(s), alpha, N)
    for z in ([0.3 + 0.1j, -0.2 + 0.4j, 0.5j], [-0.6, 0.2 - 0.3j, 0.1]):
        got = clark.verify_poisson(m, [z])
        want = polydisk.verify_poisson_d(s, alpha, z, N)
        assert got.lhs[0] == want.lhs
        assert abs(got.rhs[0] - want.rhs) <= 1e-14 * want.lhs


def test_tridisk_herglotz_reconstruction():
    phi = catalog.tridisk_rif(4.0)
    m = polydisk.build_measure_d(phi, np.exp(0.7j), 64)
    H = clark.herglotz_reconstruct(m, 12)
    assert H.moments.shape == (13, 13, 13)
    z = np.array([[0.3, -0.2j, 0.1 + 0.1j], [-0.25, 0.2, 0.3j]]).T
    assert np.max(np.abs(H(*z) - phi(*z))) < 1e-6


def test_tridisk_moment_table_is_no_larger_than_the_bidisk_one(fav):
    # herglotz_moments(32) of a tridisk measure holds (D + 1)^2 rows of
    # conj(zeta') powers; its block, sized by the row count, keeps the
    # peak at that of a one-atom two-variable measure
    def peak(m):
        tracemalloc.start()
        try:
            clark.herglotz_moments(m, 32)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    flat = clark.build_measure(fav, np.exp(0.7j), 8192)
    tri = polydisk.build_measure_d(sheets_rif(3.5, 1), np.exp(0.7j), 128)
    assert flat.weights.shape[0] == tri.weights.shape[0] == 1
    assert peak(tri) <= peak(flat)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_build_measure_d_mass_guard_passes(k):
    # the guard checks each slice's atoms against its exact Clark mass, so
    # a coarse grid builds although its quadrature misses expected_mass
    phi = sheets_rif(3.3, k)
    alpha = np.exp(0.4j)
    coarse = polydisk.build_measure_d(phi, alpha, 8)
    assert abs(clark.total_mass(coarse) / clark.expected_mass(phi, alpha)
               - 1.0) > clark.MASS_GAP_TOL
    fine = polydisk.build_measure_d(phi, alpha, 128)
    assert abs(clark.total_mass(fine) / clark.expected_mass(phi, alpha)
               - 1.0) < 1e-14


def _working_bytes(build):
    """tracemalloc peak of ``build()`` less the bytes of the arrays of the
    measure it returns (the shared read-only uniform grid is not one), and
    the measure's number of slices."""
    tracemalloc.start()
    try:
        m = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    owned = [m.atoms, m.weights] + [m.base] * m.base.flags.writeable
    return peak - sum(a.nbytes for a in owned), m.weights.shape[1]


@pytest.mark.parametrize("build, sizes", [
    (lambda N: clark.build_measure(catalog.simple_singular_rif(),
                                   np.exp(0.7j), N), (65536, 131072)),
    (lambda N: clark.build_measure(catalog.squared_singular_rif(),
                                   np.exp(0.7j), N), (65536, 131072)),
    (lambda N: polydisk.build_measure_d(sheets_rif(3.6, 1), np.exp(0.7j), N),
     (128, 256)),
    (lambda N: polydisk.build_measure_d(sheets_rif(3.6, 3), np.exp(0.7j), N),
     (128, 256)),
], ids=["fav", "squared", "tridisk_k1", "tridisk_k3"])
def test_build_working_memory_does_not_grow_with_n(build, sizes):
    # a builder holds nothing of size N beyond the arrays it returns: its
    # temporaries are block-sized, so its working memory is flat in N
    for N in sizes:  # warm the grid table and the stability certificate
        build(N)
    (small, m0), (large, m1) = [_working_bytes(lambda: build(N))
                                for N in sizes]
    assert (large - small) / (m1 - m0) <= 2.0, (small, large)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_origin_masses_are_the_closed_form_slice_masses(k):
    # the guard's slice masses, from the kernel's rows of h and p at
    # z3 = 0, against the Poisson identity at z3 = 0 with b(0) = q / p
    # from the full coefficient tensors
    phi, alpha, N = sheets_rif(3.6, k), np.exp(0.4j), 64
    zg = np.exp(2j * np.pi * np.arange(N) / N)
    pts = np.stack(np.broadcast_arrays(zg[:, None], zg[None, :]),
                   -1).reshape(-1, 2)
    atoms, num = np.empty((k, N * N), dtype=complex), np.empty((k, N * N))
    got = np.empty(N * N)
    for b, *_, h0, p0 in clark._atom_blocks(
            phi.level_coeffs(alpha), phi._den_full, pts, atoms, num):
        got[b] = clark._origin_masses(alpha, h0, p0)
    zs = [pts[:, 0], pts[:, 1]]
    b0 = _eval_tensor(phi.num.coeffs[..., 0], zs) \
        / _eval_tensor(phi.den.coeffs[..., 0], zs)
    want = (1.0 - np.abs(b0) ** 2) / np.abs(alpha - b0) ** 2
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_build_measure_d_mass_guard_raises_on_lost_roots(monkeypatch):
    atom_blocks = clark._atom_blocks

    def drop_last_root(hcoef, pcoef, pts, roots, num):
        for b, den, full, *at0 in atom_blocks(hcoef, pcoef, pts, roots, num):
            num[-1, b] = 0.0  # the last root of each slice carries no mass
            yield b, den, full, *at0

    monkeypatch.setattr(clark, "_atom_blocks", drop_last_root)
    with pytest.raises(MassGapExceeded):
        polydisk.build_measure_d(sheets_rif(3.5, 2), np.exp(0.4j), 32)


def test_build_measure_d_refuses_a_block_with_empty_atoms(monkeypatch):
    # a block in which the kernel reports a slice below full degree (an
    # empty atom) is no clean cover of the 2-torus: the placeholder of
    # weight 0 loses the atom's mass, and the guard sees it
    atom_blocks = clark._atom_blocks

    def drop_a_root(hcoef, pcoef, pts, roots, num):
        for b, den, _, *at0 in atom_blocks(hcoef, pcoef, pts, roots, num):
            roots[-1, b.start] = np.nan
            yield b, den, False, *at0

    monkeypatch.setattr(clark, "_atom_blocks", drop_a_root)
    with pytest.raises(MassGapExceeded):
        polydisk.build_measure_d(sheets_rif(3.5, 2), np.exp(0.4j), 32)


def test_low_degree_slices_skip_eigvals(corpus, monkeypatch):
    # degree-2 and degree-3 slices are solved in closed form; LAPACK
    # eigenvalues serve only degree 4 and up and coalescing roots
    def refuse(*args):
        raise AssertionError("eigvals ran on a degree <= 3 build")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    alpha = np.exp(0.7j)
    for name in ("squared", "product"):
        phi = corpus[name]
        m = clark.build_measure(phi, alpha, 4096)
        assert abs(clark.total_mass(m) / clark.expected_mass(phi, alpha)
                   - 1.0) < 1e-12, name
    for k in (2, 3):
        m = polydisk.build_measure_d(sheets_rif(3.5, k), alpha, 32)
        assert m.base.shape == (32 * 32, 2)
        assert m.atoms.shape == (k, 32 * 32)


KERNEL_ALPHAS = [np.exp(0.7j), -1.0 + 0.0j, np.exp(0.99j * np.pi),
                 np.exp(1.01j * np.pi)]


def weight_parts(phi, alpha, *zeta):
    """Numerator |p| and denominator |d/dz_d (q - alpha p)| of the Clark
    weight at level-set points given by one coordinate array per variable,
    from the full coefficient tensors: the oracle for the slice rows of
    ``conftest.slice_atoms``."""
    hd = derivative_coeffs(phi.level_coeffs(alpha), phi.dim)
    return (np.abs(_eval_tensor(phi.den.coeffs, zeta)),
            np.abs(_eval_tensor(hd, zeta)))


def _kernel_against_weight_parts(phi, alpha, pts):
    roots, num, den, _ = slice_atoms(phi, alpha, pts)
    ref_num, ref_den = weight_parts(phi, alpha, *pts.T, roots)
    keep = ~np.isnan(roots)
    assert keep.any()
    assert np.all(np.abs(num - ref_num)[keep] <= 1e-13 * ref_num[keep])
    assert np.all(np.abs(den - ref_den)[keep] <= 1e-13 * ref_den[keep])


@pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
@pytest.mark.parametrize("name", ["fav", "squared", "product", "diagonal"])
def test_slice_atom_weights_match_weight_parts(corpus, name, alpha):
    # the kernel takes |p| and |d/dz2 h| from one-variable slice rows;
    # they are the full-tensor values at its roots to rounding
    phi = corpus[name]
    zeta1, _, _ = clark._zeta1_rule(phi, alpha, 4096)
    assert np.all(np.abs(np.abs(zeta1) - 1.0) <= 2 * np.finfo(float).eps)
    _kernel_against_weight_parts(phi, alpha, zeta1[:, None])


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n1", [1, 2, 3])
@pytest.mark.parametrize("n2", [1, 2, 3])
def test_slice_atom_weights_match_weight_parts_random(n1, n2, seed):
    # random data of every bidegree up to (3, 3): linear, quadratic and
    # cubic slices against the full-tensor oracle at a generic alpha
    phi = catalog.random_rif(n1, n2, seed)
    zeta1, _, _ = clark._zeta1_rule(phi, np.exp(0.7j), 1024)
    assert np.all(np.abs(np.abs(zeta1) - 1.0) <= 2 * np.finfo(float).eps)
    _kernel_against_weight_parts(phi, np.exp(0.7j), zeta1[:, None])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_slice_atom_weights_match_weight_parts_d3(k):
    zg = np.exp(2j * np.pi * np.arange(32) / 32)
    z1, z2 = np.meshgrid(zg, zg, indexing="ij")
    _kernel_against_weight_parts(sheets_rif(3.5, k), np.exp(0.7j),
                                 np.stack([z1.ravel(), z2.ravel()], axis=-1))


def test_generic_builds_make_no_newton_call(squared, monkeypatch):
    # a closed-form slice root comes with |d/dz h| from the roots, so at a
    # generic alpha no slice takes a Newton step, on the bidisk or the
    # tridisk; product at alpha = -1 still polishes its eigenvalue column,
    # the double root at (1, 1)
    polish = levelset._newton_polish
    calls = []

    def recorded(rows, rowmax, values):
        calls.append(values.shape)
        return polish(rows, rowmax, values)

    monkeypatch.setattr(levelset, "_newton_polish", recorded)
    alpha = np.exp(0.7j)
    clark.build_measure(squared, alpha, 4096)
    clark.build_measure(catalog.product_singular_rif(), alpha, 4096)
    for k in (2, 3):
        polydisk.build_measure_d(sheets_rif(3.5, k), alpha, 32)
    assert calls == []
    clark.build_measure(catalog.product_singular_rif(), -1.0, 1024)
    assert calls == [(2, 1)]


@pytest.mark.parametrize("alpha", [np.exp(0.7j), np.exp(-1.9j)])
@pytest.mark.parametrize("name", ["fav", "squared", "product", "diagonal",
                                  "cubic"])
def test_factored_derivative_is_the_horner_derivative(corpus, name, alpha):
    # den at a closed-form root is |c_n| prod |r_a - r_b|, the derivative
    # of the polynomial of the computed roots; it is the Horner |d/dz2 h|
    # of the slice rows at those roots to 16 eps, and each live root is a
    # root of its row to 16 eps of the row's scale
    phi = catalog.random_rif(2, 3, 1) if name == "cubic" else corpus[name]
    zeta1, _, _ = clark._zeta1_rule(phi, alpha, 4096)
    roots, _, den, _ = slice_atoms(phi, alpha, zeta1[:, None])
    rows = slice_coeffs(phi.level_coeffs(alpha), zeta1[:, None])
    drows = rows[1:] * np.arange(1, len(rows))[:, None]
    live = ~np.isnan(roots)
    assert live.any()
    tol = 16 * np.finfo(float).eps
    horner = np.abs(_polyval_rows(drows[:, None], roots))
    assert np.all((np.abs(den - horner) <= tol * horner)[live])
    resid = np.abs(_polyval_rows(rows[:, None], roots))
    assert np.all((resid <= tol * np.max(np.abs(rows), axis=0))[live])


@pytest.mark.parametrize("seed, delta", [(3, 1e-5), (6, 0.0)])
def test_closed_form_weights_add_up_next_to_alpha0(seed, delta):
    # random singular draws of bidegree (1, 3) at or next to the value
    # alpha0 at their singularity: the slice masses of closed-form roots
    # add up to rounding (a Newton pass on each root left the mass gap
    # and the moments off by 5e-14 to 3e-13 here)
    phi = catalog.random_rif(1, 3, seed, singular=True)
    alpha0 = contact.nontangential_value(
        phi, levelset.find_singularities(phi)[0])
    alpha = alpha0 * np.exp(1j * np.pi * delta)
    m = clark.build_measure(phi, alpha, 4096)
    assert abs(clark.total_mass(m) / clark.expected_mass(phi, alpha)
               - 1.0) <= 1e-14
    assert clark.moment_residual(m, 6) <= 1e-14


def test_level_surface_rows_sample_the_level_surface():
    s, alpha, N = 3.5, np.exp(0.7j), 16
    rows = polydisk.level_surface_rows(s, alpha, N)
    assert rows.shape == (N * N, 3)
    theta1, theta2 = rows[:, 0], rows[:, 1]
    assert np.array_equal(theta1, np.repeat(2 * np.pi * np.arange(N) / N, N))
    assert np.array_equal(theta2, np.tile(2 * np.pi * np.arange(N) / N, N))
    z = unit_circle_points(2 * np.pi * np.arange(N) / N)
    psi = polydisk.tridisk_level(s, alpha, z[:, None], z[None, :])
    assert np.array_equal(rows[:, 2], np.angle(psi).ravel())
