"""One-variable slices of RIFs through the slice-atom kernel.

Freezing zeta1 on the circle leaves the finite Blaschke product
phi(zeta1, .), whose alpha-level points are the roots of h(zeta1, .) and
whose Clark measure has atoms of mass |p| / |d/dz2 h| there.
"""

import numpy as np
import pytest

from rifclark import catalog, levelset
from rifclark.levelset import UNIMODULAR_TOL, _slice_atoms
from rifclark.poly import derivative_coeffs

ALPHA = np.exp(0.7j)


def fav_branch(alpha, z1):
    return (2 * alpha + (1 - alpha) * z1) / (2 * z1 - 1 + alpha)


def fav_weight(alpha, z1):
    return 2 * abs(z1 - 1) ** 2 / abs(2 * z1 - 1 + alpha) ** 2


def one_slice(phi, alpha, zeta1):
    """The roots of h(zeta1, .) by angle, with |p| and |d/dz2 h| there."""
    roots, num, den, zero_rows = _slice_atoms(phi, alpha,
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
    roots, _, _, zero_rows = _slice_atoms(phi, -1.0 + 0.0j, np.array([[1.0]]))
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
        _slice_atoms(phi, ALPHA, np.array([[0.5, 0.5]]))


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
    whole = _slice_atoms(phi, alpha, pts)
    parts = [_slice_atoms(phi, alpha, pts[lo:lo + B])
             for lo in range(0, len(pts), B)]
    for got, *blocks in zip(whole, *parts):
        assert np.array_equal(got, np.concatenate(blocks, axis=-1),
                              equal_nan=True)
    roots, _, _, zero_rows = whole
    assert np.flatnonzero(np.isnan(roots).any(axis=0)).tolist() == [B + 5]
    assert zero_rows[B + 5] == (alpha == -1.0)
