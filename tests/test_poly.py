import json
import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import slice_atoms
from rifclark import catalog, clark, poly, polydisk
from rifclark.errors import (CertificateTooLarge, DegreeNotAttained,
                             ZeroPolynomial)
from rifclark.poly import (PolyMD, Rif, companion_roots, derivative_coeffs,
                           eval_poly, poly_from_json, poly_to_json, reflect,
                           slice_coeffs, stability_check, taylor_shift)

P_FAV = PolyMD(np.array([[2.0, -1.0], [-1.0, 0.0]], dtype=complex))


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        PolyMD(np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_coefficients_rejected(bad):
    # a NaN or infinite coefficient made stability_check certify p stable
    # with a least root modulus of inf
    with pytest.raises(ValueError, match="finite"):
        PolyMD(np.array([[2.0, -1.0], [bad, 0.0]], dtype=complex))


@pytest.mark.parametrize("s", [np.nan, np.inf, 2.9])
def test_tridisk_rif_refuses_s_as_the_closed_forms_do(s):
    # one range check for the family: the builder's RIF refuses what the
    # closed forms refuse, with the same message
    with pytest.raises(ValueError, match="finite s >= 3") as built:
        catalog.tridisk_rif(s)
    with pytest.raises(ValueError) as closed:
        polydisk.tridisk_weight(s, 1.0, 1.0j, -1.0j)
    assert str(built.value) == str(closed.value)


def test_degree_not_attained_rejected():
    # top face all zero in axis 0
    c = np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(DegreeNotAttained):
        PolyMD(c)


@pytest.mark.parametrize("degrees", [None, (2, 1)])
def test_rif_refuses_a_coordinate_factor_through_the_reflection(degrees):
    # p = z1 (2 - z2) is a valid PolyMD, but its reflection is 2 z2 - 1 at
    # (1, 1) and z1 (2 z2 - 1) at (2, 1): neither attains the declared
    # degree in z1, and only the validation in reflect says so
    p = PolyMD([[0, 0], [2, -1]])
    assert p.degrees == (1, 1)
    n1 = (degrees or p.degrees)[0]
    with pytest.raises(DegreeNotAttained,
                       match=f"declared degree {n1} in variable 1 "):
        Rif(p, degrees)


def test_reflection_of_fav_denominator():
    # reflection of 2 - z1 - z2 at degrees (1,1) is 2 z1 z2 - z1 - z2
    q = reflect(P_FAV)
    assert np.allclose(q.coeffs, np.array([[0.0, -1.0], [-1.0, 2.0]]))


def test_reflection_is_involution_on_fav():
    twice = reflect(reflect(P_FAV))
    assert np.array_equal(twice.coeffs, P_FAV.coeffs)


@given(st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False,
                                   allow_infinity=False),
                min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_reflection_involution_property(vals):
    c = np.array(vals, dtype=complex).reshape(2, 2)
    c[0, 0] += 11.0  # keep the constant term alive
    c[1, 1] += 7.0   # keep top degrees attained
    p = PolyMD(c)
    assert np.allclose(reflect(reflect(p)).coeffs, c)


def test_reflection_padding_requires_degrees_at_least_deg_p():
    with pytest.raises(ValueError):
        reflect(P_FAV, (0, 1))


def test_eval_matches_direct_formula():
    z1, z2 = 0.3 + 0.1j, -0.2 + 0.4j
    got = complex(eval_poly(P_FAV, (z1, z2)))
    assert abs(got - (2 - z1 - z2)) < 1e-14


def test_eval_broadcasts_columns_against_rows():
    z1 = np.exp(1j * np.linspace(0, 1, 3))[None, :]
    z2 = np.array([[0.5], [0.25]], dtype=complex)
    out = eval_poly(P_FAV, (z1, z2))
    assert out.shape == (2, 3)
    assert abs(out[1, 2] - (2 - z1[0, 2] - 0.25)) < 1e-14


def test_eval_three_variables():
    c = np.zeros((2, 2, 2), dtype=complex)
    c[1, 1, 1] = 1.0
    c[0, 0, 0] = 4.0
    got = complex(eval_poly(PolyMD(c), (0.5, 0.5j, 2.0)))
    assert abs(got - (4.0 + 0.5 * 0.5j * 2.0)) < 1e-14


def test_derivative_matches_finite_difference():
    h = 1e-7
    p = PolyMD(np.array([[2.0, -1.0, 0.5], [-1.0, 0.25, 1.5]], dtype=complex))
    z1, z2 = 0.4 + 0.2j, -0.3 + 0.1j
    for axis in (1, 2):
        dc = derivative_coeffs(p.coeffs, axis)
        dval = complex(np.polynomial.polynomial.polyval2d(z1, z2, dc))
        dz = (h, 0.0) if axis == 1 else (0.0, h)
        fd = (complex(eval_poly(p, (z1 + dz[0], z2 + dz[1])))
              - complex(eval_poly(p, (z1 - dz[0], z2 - dz[1])))) / (2 * h)
        assert abs(dval - fd) < 1e-6


def test_zero_dimensional_coefficients_are_a_constant():
    # a 0-d coefficient array is the constant polynomial of one variable
    p = PolyMD(5.0)
    assert p.coeffs.shape == (1,) and p.dim == 1 and p.degrees == (0,)
    assert p(0.3 + 0.4j) == 5.0


def test_derivative_along_a_degree_zero_axis_is_zero():
    c = np.arange(1.0, 4.0).reshape(3, 1) + 0j
    d = derivative_coeffs(c, 2)
    assert d.shape == c.shape and not d.any()


@pytest.mark.parametrize("call, match", [
    (lambda: eval_poly(P_FAV, (0.5,)), "expected 2 coordinates, got 1"),
    (lambda: eval_poly(P_FAV, (0.5, 0.5, 0.5)),
     "expected 2 coordinates, got 3"),
    (lambda: derivative_coeffs(P_FAV.coeffs, 0), "axis 0 out of range"),
    (lambda: derivative_coeffs(P_FAV.coeffs, 3), "axis 3 out of range"),
], ids=["eval_short", "eval_long", "derivative_axis_0", "derivative_axis_3"])
def test_arity_and_axis_are_checked(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_eval_matches_monomial_sum(d):
    # one Horner pass per variable against the explicit sum of monomials,
    # at broadcast coordinate arrays and at one point
    rng = np.random.default_rng(d)
    shape = (3, 2, 4, 2)[:d]
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    zs = [rng.uniform(-1, 1, (5, 1)) + 1j * rng.uniform(-1, 1, (1, 4))
          for _ in range(d)]
    ref = sum(c[j] * np.prod([z ** e for z, e in zip(zs, j)], axis=0)
              for j in np.ndindex(*shape))
    got = eval_poly(PolyMD(c), zs)
    assert got.shape == (5, 4)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.sum(np.abs(c))
    one = eval_poly(PolyMD(c), [z[0, 0] for z in zs])
    assert np.ndim(one) == 0 and abs(one - ref[0, 0]) <= 1e-14 * np.sum(
        np.abs(c))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_taylor_shift_is_the_polynomial_at_the_shifted_point(d):
    # f(point + s) through the shifted tensor, at s and at s = 0, where
    # it is f(point); integer shifts of integer coefficients are exact
    rng = np.random.default_rng(10 + d)
    shape = (3, 4, 2)[:d]
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    point = np.exp(1j * rng.uniform(0, 2 * np.pi, d))
    s = 0.3 * (rng.normal(size=d) + 1j * rng.normal(size=d))
    shifted = taylor_shift(c, point)
    assert shifted.shape == c.shape
    bound = 1e-14 * np.sum(np.abs(c)) * 2 ** sum(shape)
    assert abs(eval_poly(PolyMD(shifted), s) - eval_poly(PolyMD(c), point + s)) \
        <= bound
    assert abs(shifted[(0,) * d] - eval_poly(PolyMD(c), point)) <= bound
    ints = rng.integers(-5, 6, size=shape).astype(complex)
    ints[(-1,) * d] = 1.0
    ref = eval_poly(PolyMD(ints), (2.0,) * d)
    assert taylor_shift(ints, (2.0,) * d)[(0,) * d] == ref


def test_slice_coeffs_agrees_with_eval():
    zp = np.array([[0.7 + 0.1j], [0.2 - 0.5j]], dtype=complex)
    rows = slice_coeffs(P_FAV.coeffs, zp)
    for k in range(2):
        poly1d = np.polynomial.polynomial.polyval(0.3j, rows[:, k])
        direct = complex(eval_poly(P_FAV, (zp[k, 0], 0.3j)))
        assert abs(poly1d - direct) < 1e-13


def test_slice_coeffs_along_first_axis():
    zp = np.array([[0.4 - 0.2j]], dtype=complex)  # frozen z2
    row = slice_coeffs(np.moveaxis(P_FAV.coeffs, 0, -1), zp)[:, 0]
    val = np.polynomial.polynomial.polyval(0.6, row)
    assert abs(val - complex(eval_poly(P_FAV, (0.6, zp[0, 0])))) < 1e-13


def _broadcast_slice_coeffs(coeffs, pts, axis):
    """Reference: contract each frozen axis by a broadcast multiply-and-sum;
    coefficient-major, (n_axis + 1, m)."""
    acc = np.moveaxis(coeffs, axis - 1, 0)[..., None]
    for k in range(pts.shape[-1]):
        powers = pts[:, k] ** np.arange(acc.shape[1])[:, None]
        acc = np.sum(acc * powers.reshape(powers.shape[:1] + (1,) * (
            acc.ndim - 3) + powers.shape[1:]), axis=1)
    return acc


@pytest.mark.parametrize("shape", [(3, 2, 4), (2, 3, 2, 3)])
def test_slice_coeffs_matches_broadcast_reference(shape):
    rng = np.random.default_rng(11)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    pts = np.exp(2j * np.pi * rng.uniform(size=(50, len(shape) - 1))) \
        * rng.uniform(0.0, 1.0, size=(50, len(shape) - 1))
    for axis in range(1, len(shape) + 1):
        got = slice_coeffs(np.moveaxis(c, axis - 1, -1), pts)
        ref = _broadcast_slice_coeffs(c, pts, axis)
        assert got.shape == (shape[axis - 1], 50)
        assert np.max(np.abs(got - ref)) < 1e-14 * np.sum(np.abs(c))


@pytest.mark.parametrize("shape,pts", [
    ((4,), np.zeros((3, 0))),  # a tensor in one variable
    ((3, 4), np.zeros(3)),  # points (m,)
    ((3, 2, 4), np.zeros((5, 10, 2))),  # points (5, 10, d - 1)
    ((3, 2, 4), np.zeros((5, 1))),  # too few frozen coordinates
])
def test_slice_coeffs_refuses_all_but_m_by_d_minus_1_points(shape, pts):
    with pytest.raises(ValueError, match="points"):
        slice_coeffs(np.ones(shape), pts)


def _two_moveaxis_slice_coeffs(coeffs, pts, axis):
    """slice_coeffs with its view of the coefficients derived by two
    np.moveaxis calls: free axis to the front, then the first frozen axis
    to the back."""
    d = coeffs.ndim
    moved = np.moveaxis(np.moveaxis(coeffs, axis - 1, 0), 1, -1)
    acc = moved.reshape(-1, moved.shape[-1]) @ poly._powers(pts[:, 0],
                                                            moved.shape[-1])
    acc = acc.reshape(moved.shape[:-1] + (len(pts),))
    for k in range(1, d - 1):
        acc = poly._polyval_rows(np.moveaxis(acc, 1, 0), pts[:, k])
    return acc


@pytest.mark.parametrize("shape", [(3, 4), (4, 2), (3, 2, 4), (2, 4, 3)])
def test_slice_coeffs_view_is_the_two_moveaxis_view(shape):
    # the free axis moved last, then one transpose, gives the same view,
    # so the same rows bit for bit
    rng = np.random.default_rng(12)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    pts = np.exp(2j * np.pi * rng.uniform(size=(40, len(shape) - 1)))
    for axis in range(1, len(shape) + 1):
        got = slice_coeffs(np.moveaxis(c, axis - 1, -1), pts)
        ref = _two_moveaxis_slice_coeffs(c, pts, axis)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


EPS = np.finfo(float).eps
# root parts in [-1, 1], none so small that the coefficients underflow
unit = st.floats(min_value=-1.0, max_value=1.0).map(
    lambda x: x if abs(x) > 1e-6 else 0.0)


def _derivative_rows(c):
    """Coefficient rows of f, f', f'', ... for a row c (constant first)."""
    rows = [c]
    while len(rows[-1]) > 1:
        rows.append(rows[-1][1:] * np.arange(1, len(rows[-1])))
    return rows


@given(deg=st.sampled_from([2, 3]),
       parts=st.lists(st.tuples(unit, unit), min_size=3, max_size=3),
       root_exp=st.integers(min_value=-2, max_value=2),
       lead_exp=st.integers(min_value=-8, max_value=8),
       form=st.sampled_from(["simple", "zero", "double", "triple", "drop"]))
@example(deg=2, parts=[(0.5, 0.0)] * 3, root_exp=0, lead_exp=0, form="double")
@example(deg=3, parts=[(0.3, -0.4)] * 3, root_exp=0, lead_exp=0,
         form="triple")
@example(deg=3, parts=[(0.0, 0.0)] * 3, root_exp=0, lead_exp=0, form="triple")
@settings(max_examples=300, deadline=None)
def test_closed_form_roots_match_numpy(deg, parts, root_exp, lead_exp, form):
    # quadratic and cubic rows against np.roots: a normwise residual within
    # 16 eps, and the same multiset up to 16 times each root's conditioning
    # (m! eps S / |f^(m)|)^(1/m) at multiplicity m
    roots = np.array([complex(a, b) for a, b in parts[:deg]]) \
        * 10.0 ** root_exp
    if form == "zero":
        roots[0] = 0.0
    elif form == "double":
        roots[1] = roots[0]
    elif form == "triple":
        roots[:] = roots[0]
    c = np.poly(roots)[::-1] * 10.0 ** lead_exp
    row = np.append(c, 0.0) if form == "drop" else c
    got = companion_roots(row[:, None])[:, 0]
    assert got.shape == (len(row) - 1,)
    assert np.isnan(got[deg:]).all() and not np.isnan(got[:deg]).any()
    got = got[:deg]
    ref = np.roots(c[::-1])
    rho = max(np.max(np.abs(ref)), np.max(np.abs(got)), 1e-300)
    S = np.sum(np.abs(c) * rho ** np.arange(deg + 1))
    fs = _derivative_rows(c)
    val = np.polynomial.polynomial.polyval
    assert np.max(np.abs(val(got, c))) <= 16 * EPS * S

    def cond(r):
        return min((math.factorial(m) * EPS * S
                    / max(abs(val(r, fs[m])), 1e-300)) ** (1.0 / m)
                   for m in range(1, deg + 1))

    best = min(max(abs(g - r) - 16 * (cond(g) + cond(r)) for g, r
                   in zip(got[list(perm)], ref))
               for perm in permutations(range(deg)))
    assert best <= 0.0


@pytest.mark.parametrize("roots", [
    [3e-7, 1.7], [-2.3e6, 3.1e-6j],
    [3.7e-6, 2.9e5, -1.3e5j], [1.1e-9j, 0.5, 0.7 - 0.5j],
    list(np.exp(2j * np.pi * np.arange(3) / 3) * [1.0, 1.0 + 1e-4, 1.0]),
])
def test_closed_form_roots_keep_every_root_to_relative_eps(roots):
    # roots of very different sizes, and a cubic whose depressed form is
    # nearly t^3 - 1: the sign choices and the Newton step keep every root
    # to relative rounding, where cancellation would lose them
    roots = np.array(roots, dtype=complex)
    got = companion_roots(np.poly(roots)[::-1][:, None])[:, 0]
    for r in roots:
        assert np.min(np.abs(got - r)) <= 8 * EPS * abs(r)


def test_companion_roots_match_numpy():
    rows = np.array([[6.0, 2.0], [-5.0, -3.0], [1.0, 1.0]], dtype=complex)
    got = companion_roots(rows)
    assert got.shape == (2, 2) and not np.isnan(got).any()
    for k, row in enumerate(rows.T):
        expect = np.sort_complex(np.roots(row[::-1]))
        assert np.allclose(np.sort_complex(got[:, k]), expect)


def test_companion_roots_degree_drop():
    # vanishing leading coefficient in one column yields one fewer root
    # there: the padded column ends in NaN
    rows = np.array([[6.0, 1.0], [-5.0, 1.0], [1.0, 0.0]], dtype=complex)
    got = companion_roots(rows)
    assert got.shape == (2, 2)
    assert not np.isnan(got[:, 0]).any()
    assert not np.isnan(got[0, 1]) and np.isnan(got[1, 1])
    assert abs(got[0, 1] + 1.0) < 1e-12


def test_companion_roots_empty_and_constant_batches():
    assert companion_roots(np.empty((4, 0), dtype=complex)).shape == (3, 0)
    assert companion_roots(np.empty((1, 0), dtype=complex)).shape == (0, 0)
    assert companion_roots(np.ones((1, 3), dtype=complex)).shape == (0, 3)


@pytest.mark.parametrize("deg", [1, 2, 3, 4])
def test_companion_roots_in_place_and_gathered_agree(deg):
    # a degree class that fills the batch is solved in place, one that
    # shares it with a degree-drop column is gathered; both give the same
    # roots bit for bit, as does each column solved alone
    rng = np.random.default_rng(deg)
    rows = rng.normal(size=(64, deg + 1)) + 1j * rng.normal(size=(64, deg + 1))
    rows = np.ascontiguousarray(rows.T)  # (deg + 1, 64), as drawn before
    drop = np.append(rows[:deg, 0], 0.0)[:, None]
    full = companion_roots(rows)
    mixed = companion_roots(np.hstack([rows, drop]))
    assert not np.isnan(full).any()
    assert np.array_equal(mixed[:, :-1], full)
    assert np.array_equal(mixed[:, -1], companion_roots(drop)[:, 0],
                          equal_nan=True)
    assert np.isnan(mixed[-1, -1])
    for i in range(0, 64, 9):
        assert np.array_equal(companion_roots(rows[:, i:i + 1])[:, 0],
                              full[:, i])


def _solve(rows):
    size = np.abs(rows)
    out = np.empty((len(rows) - 1, rows.shape[1]), dtype=complex)
    dout = np.empty(out.shape)
    eig, full = poly._solve_columns(rows, size, np.max(size, axis=0), out,
                                    dout)
    return out, dout, eig, full


@pytest.mark.parametrize("deg", [1, 2, 3, 4])
def test_solve_columns_dh_is_h_prime_at_the_roots(deg):
    # |h'| at a closed-form root comes from the formula (|c_1|, |c_2| |d|,
    # the gaps of the final cubic roots): it is |h'| evaluated at the
    # returned root, NaN exactly at the padding, and the same bit for bit
    # whether the root's degree class fills the block or is gathered
    rng = np.random.default_rng(20 + deg)
    rows = rng.normal(size=(deg + 1, 90)) + 1j * rng.normal(size=(deg + 1, 90))
    for i in range(0, 90, 10):  # coalescing pairs: roots 1e-8 apart
        r = rng.normal(size=deg) + 1j * rng.normal(size=deg)
        r[-1] = r[0] * (1.0 + 1e-8)
        rows[:, i] = np.poly(r)[::-1] * rng.normal()
    rows[deg, 1::6] *= 1e-13  # a drop by one
    rows[deg - 1:, 2::9] = 0.0  # a drop by two (a zero column at degree 1)
    rows[:, 4::15] = 0.0  # zero columns
    out, dout, eig, full = _solve(rows)
    assert not full
    assert np.array_equal(np.isnan(out), np.isnan(dout))
    top = np.count_nonzero(~np.isnan(out), axis=0)
    assert set(top) == {0} | {max(deg - j, 0) for j in (0, 1, 2)}
    for n in set(top) - {0}:  # each degree class alone fills its block
        cols = np.flatnonzero(top == n)
        alone = _solve(rows[:, cols])
        assert alone[3] == (n == deg)
        for got, want in zip(alone[:2], (out[:, cols], dout[:, cols])):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    pairs = [i for i in range(0, 90, 10) if top[i] == deg]
    if deg > 1:  # the coalescing pairs went to the eigenvalues
        assert len(pairs) == 8 and set(pairs) <= set(eig)
    for i in np.setdiff1d(np.flatnonzero(top), eig):  # closed-form roots
        n = top[i]
        dh = rows[1:n + 1, i] * np.arange(1, n + 1)
        want = np.abs(np.polyval(dh[::-1], out[:n, i]))
        assert np.allclose(dout[:n, i], want, rtol=1e-12, atol=0.0), i


@pytest.mark.parametrize("name", ["simple_singular_rif",
                                  "squared_singular_rif"])
def test_slice_rows_chain_matches_slice_atoms(name):
    # slice_coeffs straight into companion_roots, coefficient-major end to
    # end, gives the kernel's roots before their Newton polish
    phi = getattr(catalog, name)()
    alpha = np.exp(0.7j)
    n = 1024
    zeta = np.exp(2j * np.pi * np.arange(n) / n)
    roots = companion_roots(slice_coeffs(phi.level_coeffs(alpha),
                                         zeta[:, None]))
    polished = slice_atoms(phi, alpha, zeta[:, None])[0]
    assert roots.shape == polished.shape == (phi.degrees[1], n)
    assert np.max(np.abs(roots - polished)) <= 1e-12


def test_stability_of_catalog_denominators():
    for phi in (catalog.simple_singular_rif(), catalog.squared_singular_rif(),
                catalog.diagonal_rif()):
        assert stability_check(phi.den) > 1.0 - 1e-9


@pytest.mark.parametrize("d", [4, 5])
def test_stability_check_refuses_a_grid_above_its_cap(d, monkeypatch):
    # p = d + 1 - z1 - ... - zd: 121^(d-1) frozen points per axis, refused
    # before the grid is formed (d = 4 took over a second, d = 5 ran out of
    # memory)
    c = np.zeros((2,) * d, dtype=complex)
    c[(0,) * d] = d + 1.0
    for axis in range(d):
        c[tuple(int(i == axis) for i in range(d))] = -1.0

    def refuse(*args, **kwargs):
        raise AssertionError("the grid was formed")

    monkeypatch.setattr(np, "meshgrid", refuse)
    with pytest.raises(CertificateTooLarge, match=f"{121 ** (d - 1)} slices"):
        stability_check(PolyMD(c))


@pytest.mark.parametrize("coeffs", [[2.0, -1.0, 0.3j], [0.5, 1.0], [3.0]])
def test_stability_check_of_a_univariate_p_is_its_least_root(coeffs):
    # p is its own one slice; a constant has no root
    p = PolyMD(coeffs)
    roots = companion_roots(p.coeffs[:, None])
    assert stability_check(p) == np.min(np.abs(roots), initial=np.inf)


def test_instability_detected():
    # z1 z2 - 0.25 vanishes at (0.5, 0.5)
    c = np.array([[-0.25, 0.0], [0.0, 1.0]], dtype=complex)
    assert not stability_check(PolyMD(c)) > 1.0 - 1e-9


def test_json_round_trip_is_byte_identical():
    text = poly_to_json(P_FAV)
    again = poly_to_json(poly_from_json(text))
    assert text == again
    obj = json.loads(text)
    assert obj["degrees"] == [1, 1]


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=24, max_size=24),
       st.sampled_from([(12,), (3, 4), (2, 3, 2)]))
@settings(max_examples=100, deadline=None)
def test_json_round_trip_keeps_every_coefficient_bit(bits, shape):
    # random bit patterns, the non-finite ones (which PolyMD refuses) as 1;
    # the last coefficient 1 attains every declared degree
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    x[~np.isfinite(x)] = 1.0
    c = np.empty(12, dtype=complex)
    c.real, c.imag = x[:12], x[12:]
    c[-1] = 1.0
    p = PolyMD(c.reshape(shape))
    got = poly_from_json(poly_to_json(p)).coeffs
    assert got.shape == shape
    assert np.array_equal(got.view(np.uint64), p.coeffs.view(np.uint64))


@pytest.mark.parametrize("obj, match", [
    ([[1, 1], [[2, 0], [-1, 0], [-1, 0], [0, 0]]], "needs the keys"),
    ({"degrees": [1, 1]}, "needs the keys"),
    ({"coeffs": [[1, 0]]}, "needs the keys"),
    ({"degrees": 1, "coeffs": [[1, 0], [1, 0]]}, "degrees must be"),
    ({"degrees": "11", "coeffs": [[1, 0]] * 4}, "degrees must be"),
    ({"degrees": [], "coeffs": [[1, 0]]}, "degrees must be"),
    ({"degrees": [1.7, 1], "coeffs": [[1, 0]] * 4}, "degrees must be"),
    ({"degrees": [1.0, 1], "coeffs": [[1, 0]] * 4}, "degrees must be"),
    ({"degrees": [True, 1], "coeffs": [[1, 0]] * 4}, "degrees must be"),
    ({"degrees": [-1, 1], "coeffs": [[1, 0]] * 4}, "degrees must be"),
    ({"degrees": [1, 1], "coeffs": {"0": [1, 0]}}, "coeffs must be a list"),
    ({"degrees": [0], "coeffs": [1, 0]}, "coeffs must be a list"),
    ({"degrees": [1], "coeffs": [[1, 0, 0], [1, 0]]}, "coeffs must be a list"),
    ({"degrees": [1], "coeffs": [[1], [1, 0]]}, "coeffs must be a list"),
    ({"degrees": [1], "coeffs": [["1", 0], [1, 0]]}, "coeffs must be a list"),
    ({"degrees": [1], "coeffs": [[True, 0], [1, 0]]}, "coeffs must be a list"),
    ({"degrees": [1], "coeffs": [[float("nan"), 0], [1, 0]]},
     "coeffs must be a list"),
    ({"degrees": [1], "coeffs": [[1, float("inf")], [1, 0]]},
     "coeffs must be a list"),
    ({"degrees": [1], "coeffs": [[10 ** 400, 0], [1, 0]]},
     "coeffs must be a list"),
    ({"degrees": [1, 1], "coeffs": [[1, 0]] * 3}, "count does not match"),
], ids=["list", "no_coeffs", "no_degrees", "scalar_degrees", "text_degrees",
        "empty_degrees", "fractional_degree", "float_degree", "bool_degree",
        "negative_degree", "dict_coeffs", "flat_coeffs", "triple", "single",
        "text_coeff", "bool_coeff", "nan_coeff", "inf_coeff", "huge_coeff",
        "count"])
def test_poly_from_json_rejects_malformed_records(obj, match):
    with pytest.raises(ValueError, match=match):
        poly_from_json(json.dumps(obj))


def test_rif_numerator_is_reflection():
    phi = Rif(P_FAV)
    assert np.allclose(phi.num.coeffs, reflect(P_FAV).coeffs)


def test_rif_monomial_padding():
    phi = Rif(P_FAV, degrees=(2, 2))
    # padded numerator equals z1 z2 times the plain reflection
    plain = reflect(P_FAV).coeffs
    padded = np.zeros((3, 3), dtype=complex)
    padded[1:, 1:] = plain
    assert np.allclose(phi.num.coeffs, padded)
    z = (0.3 + 0.2j, -0.1 + 0.5j)
    base = Rif(P_FAV)
    assert abs(complex(phi(*z)) - z[0] * z[1] * complex(base(*z))) < 1e-14


def test_rif_is_inner_on_torus_samples():
    phi = Rif(P_FAV)
    th = np.linspace(0.1, 6.0, 17)
    vals = phi(np.exp(1j * th), np.exp(1j * th[::-1]))
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12


def test_rif_contracts_interior():
    phi = Rif(P_FAV)
    rng = np.random.default_rng(3)
    z = 0.8 * np.sqrt(rng.uniform(size=(40, 2))) \
        * np.exp(2j * np.pi * rng.uniform(size=(40, 2)))
    assert np.max(np.abs(phi(z[:, 0], z[:, 1]))) < 1.0


def test_rif_requires_positive_degrees():
    flat = PolyMD(np.array([[2.0, -1.0]], dtype=complex))  # degree 0 in z1
    with pytest.raises(ValueError):
        Rif(flat)


def test_level_coeffs_definition():
    phi = Rif(P_FAV)
    alpha = np.exp(0.4j)
    h = phi.level_coeffs(alpha)
    assert np.allclose(h, phi.num.coeffs - alpha * P_FAV.coeffs)


def _sheets(s, k):
    c = np.zeros((2, 2, k + 1), dtype=complex)
    c[0, 0, 0] = s
    c[1, 0, 0] = c[0, 1, 0] = c[0, 0, k] = -1.0
    return Rif(PolyMD(c))


@pytest.mark.parametrize("phi", [
    catalog.monomial_rif(), catalog.simple_singular_rif(),
    catalog.squared_singular_rif(), catalog.product_singular_rif(),
    catalog.diagonal_rif(), Rif(P_FAV, degrees=(3, 2)),
    *[catalog.random_rif(n1, n2, 5) for n1 in (1, 2, 3) for n2 in (1, 2, 3)],
    *[_sheets(3.6, k) for k in (1, 2, 3)]])
def test_level_coeffs_is_the_padded_formula_bit_for_bit(phi):
    # the padded denominator is stored once; the tensor is the old copy,
    # pad and in-place subtraction to the last bit
    for alpha in (np.exp(0.4j), -1.0 + 0.0j, np.exp(-2.9j)):
        shape = tuple(n + 1 for n in phi.degrees)
        want = phi.num.coeffs.astype(np.complex128).copy()
        pad = [(0, s - t) for s, t in zip(shape, phi.den.coeffs.shape)]
        want -= alpha * np.pad(phi.den.coeffs, pad)
        got = phi.level_coeffs(alpha)
        assert got.shape == shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _roots_by_column(c):
    """companion_roots spelled out one column at a time from the
    per-degree solvers: the degree is the last coefficient above
    DEGREE_DROP_REL_TOL of the column's largest, then the closed form (or
    eigenvalues for coalescing roots) or, from degree 4, eigenvalues."""
    out = np.full((len(c) - 1, c.shape[1]), np.nan, dtype=complex)
    for i, col in enumerate(c.T):
        size = np.abs(col)
        live = np.flatnonzero(size > poly.DEGREE_DROP_REL_TOL * size.max())
        deg = live[-1] if live.size else 0
        if deg == 0:
            continue
        monic = (col[:deg] / col[deg])[:, None]
        cols, roots = col[:deg + 1, None], np.empty((deg, 1), dtype=complex)
        if deg == 1:
            roots = -monic
        elif deg <= 3:
            tight = poly._quadratic_roots(cols, abs(col[2:3]), roots,
                                          np.empty(roots.shape)) \
                if deg == 2 else poly._cubic_roots(cols, roots)
            if tight.any():
                roots = poly._eigvals(monic)
        else:
            roots = poly._eigvals(monic)
        out[:deg, i] = roots[:, 0]
    return out


def test_companion_roots_unchanged_on_catalog_and_random_batches(
        monkeypatch):
    # the wrapper over the per-degree solver keeps trimming, NaN padding
    # and every root bit for bit: catalog slices at generic and
    # exceptional alpha, the tridisk's cubic slices, squared's Blaschke
    # preimage rows (cubic), real quadratic slices at alpha = -1 whose
    # conjugate roots tie in the sign rule, and random rows of degree 1
    # to 4 with drops
    zeta = np.exp(2j * np.pi * np.arange(64) / 64)[:, None]
    batches = [slice_coeffs(getattr(catalog, name)().level_coeffs(alpha),
                            zeta)
               for name in ("simple_singular_rif", "squared_singular_rif",
                            "product_singular_rif", "diagonal_rif")
               for alpha in (np.exp(0.7j), -1.0, -np.exp(0.05j))]
    grid = np.stack(np.meshgrid(zeta[::4, 0], zeta[::4, 0], indexing="ij"),
                    axis=-1).reshape(-1, 2)
    batches.append(slice_coeffs(_sheets(3.6, 3).level_coeffs(np.exp(0.7j)),
                                grid))
    seen = []  # the Blaschke rule's tensor h(w, z) and its values w
    atom_blocks = clark._atom_blocks
    monkeypatch.setattr(clark, "_atom_blocks", lambda hcoef, pcoef, pts, *out:
                        seen.append((hcoef, pts)) or atom_blocks(
                            hcoef, pcoef, pts, *out))
    clark._zeta1_rule(catalog.squared_singular_rif(),
                      np.exp(1j * np.pi * 1.045), 64)
    rows = slice_coeffs(*seen[-1])
    assert rows.shape == (4, 64)  # the Blaschke preimage rows
    batches.append(rows)
    rows = slice_coeffs(catalog.product_singular_rif().level_coeffs(-1.0),
                        np.linspace(-1.0, 1.0, 41)[:, None])
    disc = (rows[1] * rows[1] - 4.0 * rows[0] * rows[2]).real
    assert np.all(rows.imag == 0.0) and np.count_nonzero(disc < 0.0) == 18
    batches.append(rows)
    rng = np.random.default_rng(7)
    for deg in (1, 2, 3, 4):
        rows = rng.normal(size=(deg + 1, 48)) \
            + 1j * rng.normal(size=(deg + 1, 48))
        rows[deg, ::3] *= 1e-13  # a drop by one
        rows[deg - 1:, 1::5] = 0.0  # a drop by two (all zero at 1)
        batches.append(rows)
    for rows in batches:
        assert np.array_equal(companion_roots(rows), _roots_by_column(rows),
                              equal_nan=True)
