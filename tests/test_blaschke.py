"""One-variable slices of RIFs through the slice-atom kernel.

Freezing zeta1 on the circle leaves the finite Blaschke product
phi(zeta1, .), whose alpha-level points are the roots of h(zeta1, .) and
whose Clark measure has atoms of mass |p| / |d/dz2 h| there.
"""

import numpy as np
import pytest

from conftest import slice_atoms
from rifclark import catalog, clark, levelset, poly
from rifclark.levelset import UNIMODULAR_TOL
from rifclark.poly import (PolyMD, Rif, _polyval_rows, companion_roots,
                           derivative_coeffs, slice_coeffs)

ALPHA = np.exp(0.7j)


def fav_branch(alpha, z1):
    return (2 * alpha + (1 - alpha) * z1) / (2 * z1 - 1 + alpha)


def fav_weight(alpha, z1):
    return 2 * abs(z1 - 1) ** 2 / abs(2 * z1 - 1 + alpha) ** 2


def one_slice(phi, alpha, zeta1):
    """The roots of h(zeta1, .) by angle, with |p| and |d/dz2 h| there."""
    roots, num, den, zero_rows = slice_atoms(phi, alpha,
                                             np.array([[zeta1]]))
    assert not zero_rows[0]
    keep = np.flatnonzero(~np.isnan(roots[:, 0]))
    keep = keep[np.argsort(np.angle(roots[keep, 0]))]
    return roots[keep, 0], num[keep, 0], den[keep, 0]


def test_slice_roots_match_closed_form():
    phi = catalog.simple_singular_rif()
    for th in (0.3, 1.1, 2.9, 5.0):
        z1 = np.exp(1j * th)
        roots, _, _ = one_slice(phi, ALPHA, z1)
        assert len(roots) == phi.degrees[-1] == 1  # no degree drop
        assert abs(roots[0] - fav_branch(ALPHA, z1)) < 1e-12
        assert abs(abs(roots[0]) - 1.0) < UNIMODULAR_TOL


def test_slice_atom_mass_matches_closed_form():
    phi = catalog.simple_singular_rif()
    # below 1e-9 times their coefficient scales |p| and |d/dz2 h| count as 0
    num_tol = 1e-9 * phi.den.coefficient_scale()
    den_tol = 1e-9 * np.sum(np.abs(derivative_coeffs(phi.level_coeffs(ALPHA),
                                                     2)))
    for th in (0.3, 1.1, 2.9):
        z1 = np.exp(1j * th)
        _, num, den = one_slice(phi, ALPHA, z1)
        assert len(num) == 1
        assert abs(num[0] / den[0] - fav_weight(ALPHA, z1)) < 1e-12
        assert num[0] >= num_tol and den[0] >= den_tol  # not degenerate


def test_two_roots_per_slice_for_squared_rif():
    phi = catalog.squared_singular_rif()
    z1 = np.exp(0.4j)
    roots, _, _ = one_slice(phi, ALPHA, z1)
    assert len(roots) == 2
    for r in roots:
        assert abs(complex(phi(z1, r)) - ALPHA) < 1e-10
    # the two roots are the two square roots of the induced degree-1 branch
    assert abs(roots[0] + roots[1]) < 1e-10


def test_atom_masses_sum_to_one_variable_clark_mass():
    # slicing first yields a one-variable inner function b(w) = phi(z1, w);
    # its Clark measure at alpha has total mass (1-|b(0)|^2)/|alpha-b(0)|^2
    phi = catalog.squared_singular_rif()
    z1 = np.exp(0.4j)
    _, num, den = one_slice(phi, ALPHA, z1)
    b0 = complex(phi(z1, 0.0))
    expect = (1 - abs(b0) ** 2) / abs(ALPHA - b0) ** 2
    assert abs(np.sum(num / den) - expect) < 1e-10


def test_identically_zero_slice_is_flagged():
    # the slice at zeta1 = 1 of fav at alpha = -1 lies on the line {1} x T
    phi = catalog.simple_singular_rif()
    roots, _, _, zero_rows = slice_atoms(phi, -1.0 + 0.0j, np.array([[1.0]]))
    assert zero_rows[0] and np.isnan(roots[:, 0]).all()


def test_slice_through_singularity_is_degenerate():
    phi = catalog.simple_singular_rif()
    num_tol = 1e-9 * phi.den.coefficient_scale()
    roots, num, den = one_slice(phi, 1.0 + 0.0j, 1.0 + 0.0j)
    assert len(roots) == 1
    assert abs(roots[0] - 1.0) < 1e-8
    # |p| vanishes at the singularity (1, 1): the atom carries no mass
    assert num[0] < num_tol and num[0] / den[0] == 0.0


def test_monomial_slice():
    phi = catalog.monomial_rif()
    z1 = np.exp(1.3j)
    roots, num, den = one_slice(phi, ALPHA, z1)
    assert abs(roots[0] - ALPHA * np.conj(z1)) < 1e-13
    assert abs(num[0] / den[0] - 1.0) < 1e-13


def test_wrong_slice_arity_rejected():
    phi = catalog.simple_singular_rif()
    with pytest.raises(ValueError):
        slice_atoms(phi, ALPHA, np.array([[0.5, 0.5]]))


@pytest.mark.parametrize("alpha, special", [
    (-1.0 + 0.0j, 1.0),  # a zero slice: fav's line {1} x T at alpha = -1
    # a degree drop: the z2 coefficient 2 z1 - 1 + alpha of h vanishes
    (ALPHA, (1.0 - ALPHA) / 2.0),
])
def test_blocked_kernel_equals_its_blocks(alpha, special):
    # 2 SLICE_BLOCK + 37 points, ``special`` in the middle block
    phi = catalog.simple_singular_rif()
    B = levelset.SLICE_BLOCK
    m = 2 * B + 37
    pts = np.exp(2j * np.pi * (np.arange(m) + 0.5) / m)[:, None]
    pts[B + 5] = special
    whole = slice_atoms(phi, alpha, pts)
    parts = [slice_atoms(phi, alpha, pts[lo:lo + B])
             for lo in range(0, len(pts), B)]
    for got, *blocks in zip(whole, *parts):
        assert np.array_equal(got, np.concatenate(blocks, axis=-1),
                              equal_nan=True)
    roots, _, _, zero_rows = whole
    assert np.flatnonzero(np.isnan(roots).any(axis=0)).tolist() == [B + 5]
    assert zero_rows[B + 5] == (alpha == -1.0)


EPS = np.finfo(float).eps
CLUSTERED = -np.exp(0.05j)


def sheets_rif(s, k):
    """Denominator s - z1 - z2 - z3^k: k roots in z3 over every slice."""
    c = np.zeros((2, 2, k + 1), dtype=complex)
    c[0, 0, 0] = s
    c[1, 0, 0] = c[0, 1, 0] = c[0, 0, k] = -1.0
    return Rif(PolyMD(c))


def degree_one_cases():
    yield "fav", catalog.simple_singular_rif()
    yield "diagonal", catalog.diagonal_rif()
    for m in (1, 2, 3):
        for singular in (False, True):
            yield f"random({m}, 1, singular={singular})", \
                catalog.random_rif(m, 1, m, singular=singular)
    yield "sheets(3.6, 1)", sheets_rif(3.6, 1)


@pytest.mark.parametrize("alpha", [ALPHA, -1.0 + 0.0j, CLUSTERED])
def test_degree_one_slices_take_the_quotient(alpha):
    # a slice of degree 1 in the solved variable is solved by its quotient
    # -c0 / c1 with no Newton step: within rounding of the polished root,
    # |d/dz h| is |c1| exactly, and the row vanishes there to rounding
    zg = np.exp(2j * np.pi * np.arange(32) / 32)
    z1, z2 = np.meshgrid(zg, zg, indexing="ij")
    for name, phi in degree_one_cases():
        pts = clark._zeta1_rule(phi, alpha, 1024)[0][:, None] \
            if phi.dim == 2 else np.stack([z1.ravel(), z2.ravel()], axis=-1)
        roots, _, den, _ = slice_atoms(phi, alpha, pts)
        rows = slice_coeffs(phi.level_coeffs(alpha), pts)
        rowmax = np.max(np.abs(rows), axis=0)
        polished = companion_roots(rows)
        levelset._newton_polish(rows, rowmax, polished)
        live = ~np.isnan(roots)
        assert np.array_equal(live, ~np.isnan(polished)), name
        assert live.any() and np.isnan(den[~live]).all(), name
        # the polish stops once a step moves a root by at most 4 eps |w|
        assert np.all(np.abs(roots - polished)[live]
                      <= 4 * EPS * np.abs(polished[live])), name
        assert np.array_equal(den[live], np.abs(rows[1:])[live]), name
        assert np.all(np.abs(rows[0] + rows[1] * roots[0])[live[0]]
                      <= 8 * EPS * rowmax[live[0]]), name
    # an empty atom, a zero slice or a degree drop, keeps den = NaN
    fav = catalog.simple_singular_rif()
    for a, z1 in ((-1.0 + 0.0j, 1.0), (ALPHA, (1.0 - ALPHA) / 2.0)):
        roots, num, den, _ = slice_atoms(fav, a, np.array([[z1]]))
        assert np.isnan(roots).all() and np.isnan(num).all() \
            and np.isnan(den).all()


def test_degree_one_atoms_stay_on_the_torus_to_coefficient_rounding():
    # fav's atoms at a clustered alpha sit off the circle by the rounding
    # of the slice coefficients (up to 4.7e-13), not of the root solve;
    # the figure must not grow
    phi = catalog.simple_singular_rif()
    for N in (512, 4096):
        m = clark.build_measure(phi, CLUSTERED, N)
        live = m.weights != 0.0
        assert np.max(np.abs(np.abs(m.atoms[live]) - 1.0)) <= 5e-13


@pytest.mark.parametrize("name, alpha, extra, zero_cols, empty", [
    # zero slices at zeta1 = +-1 of the unshifted grid: every atom empty
    ("squared_singular_rif", -1.0 + 0.0j, [], [0, 128],
     [(0, 0), (0, 128), (1, 0), (1, 128)]),
    # degree drops at zeta1 = 0.5 and 0, where the z2^2 coefficient
    # z1 (2 z1 - 1) of h vanishes: the second atom of each is empty
    ("product_singular_rif", -1.0 + 0.0j, [0.5, 0.0], [],
     [(1, 256), (1, 257)]),
])
def test_shared_scale_matches_solver_and_polish(name, alpha, extra,
                                                zero_cols, empty):
    # one pass of |rows| serves the zero-slice test, the solver's
    # degree-drop test and the Newton guard: the kernel puts its zero
    # rows and empty atoms where companion_roots on the same rows puts
    # them, takes |d/dz h| at a closed-form root from the formula,
    # |c_1| at degree 1 and |c_2| |d| at degree 2 (d the square root of
    # the monic discriminant, the roots' gap), and Newton-polishes only
    # the columns whose roots coalesce (companion eigenvalues), every
    # value bit for bit
    phi = getattr(catalog, name)()
    pts = np.append(np.exp(2j * np.pi * np.arange(256) / 256), extra)[:, None]
    roots, num, den, zero_rows = slice_atoms(phi, alpha, pts)
    hcoef = phi.level_coeffs(alpha)
    rows = slice_coeffs(hcoef, pts)
    rowmax = np.max(np.abs(rows), axis=0)
    zero = rowmax < levelset.ZERO_SLICE_REL_TOL * np.max(np.abs(hcoef))
    ref = companion_roots(np.where(zero, np.eye(len(rows), 1), rows))
    deg = np.count_nonzero(~np.isnan(ref), axis=0)
    two = np.flatnonzero(deg == 2)
    dh = np.abs(rows[1])
    b, c = rows[1, two] / rows[2, two], rows[0, two] / rows[2, two]
    dh[two] = np.abs(rows[2, two]) * np.abs(np.sqrt(b * b - 4.0 * c))
    dh = np.where(np.isnan(ref), np.nan, dh)
    scratch = np.empty((2, len(two)), dtype=complex)
    eig = two[poly._quadratic_roots(rows[:, two], np.abs(rows[2, two]),
                                    scratch, np.empty(scratch.shape))]
    w = ref[:, eig]
    dh[:, eig] = np.abs(levelset._newton_polish(rows[:, eig], rowmax[eig], w))
    ref[:, eig] = w
    # product's double root at (1, 1) goes to eigvals; squared's at
    # (+-1, +-1) sits in its zero slices
    assert eig.tolist() == ([0] if name == "product_singular_rif" else [])
    assert np.flatnonzero(zero_rows).tolist() == zero_cols
    assert np.array_equal(zero_rows, zero)
    assert [tuple(ij) for ij in np.argwhere(np.isnan(roots))] == empty
    assert np.array_equal(roots, ref, equal_nan=True)
    assert np.array_equal(den, dh, equal_nan=True)
    p_rows = slice_coeffs(phi.den.coeffs, pts)
    assert np.array_equal(num, np.abs(_polyval_rows(p_rows[:, None], ref)),
                          equal_nan=True)
