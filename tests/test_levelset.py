import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import slice_atoms
from rifclark import (catalog, clark, contact, embedding, levelset, poly,
                      polydisk)
from rifclark.cli import main
from rifclark.errors import MassGapExceeded, PhaseLabelFailure
from rifclark.poly import PolyMD, Rif, poly_to_json
from rifclark.util import grid_shift, unit_circle_points

EPS = np.finfo(float).eps


def fav_branch(alpha, z1):
    return (2 * alpha + (1 - alpha) * z1) / (2 * z1 - 1 + alpha)


def fav_weight(alpha, z1):
    return 2 * np.abs(z1 - 1) ** 2 / np.abs(2 * z1 - 1 + alpha) ** 2


def test_fav_alpha_one_branch_is_conjugate(fav):
    branches = levelset.trace_branches(fav, 1.0 + 0.0j, 1024)
    assert len(branches) == 1
    br = branches[0]
    zeta = np.exp(1j * br.theta)
    assert np.max(np.abs(br.values - np.conj(zeta))) < 1e-10
    assert np.max(np.abs(br.weights - (1 - np.cos(br.theta)))) < 1e-8


def test_fav_generic_alpha_matches_mobius(fav):
    alpha = np.exp(0.7j)
    br = levelset.trace_branches(fav, alpha, 512)[0]
    zeta = np.exp(1j * br.theta)
    assert np.max(np.abs(br.values - fav_branch(alpha, zeta))) < 1e-11
    assert np.max(np.abs(br.weights - fav_weight(alpha, zeta))) < 1e-10


def test_squared_rif_has_two_square_root_branches(squared):
    alpha = np.exp(0.7j)
    branches = levelset.trace_branches(squared, alpha, 512)
    assert len(branches) == 2
    zeta = np.exp(1j * branches[0].theta)
    target = fav_branch(alpha, zeta ** 2)
    for br in branches:
        assert np.max(np.abs(br.values ** 2 - target)) < 1e-10
    # the two branches are the two square roots at each node
    assert np.max(np.abs(branches[0].values + branches[1].values)) < 1e-10
    w_target = np.abs(zeta ** 2 - 1) ** 2 / np.abs(2 * zeta ** 2 - 1 + alpha) ** 2
    for br in branches:
        assert np.max(np.abs(br.weights - w_target)) < 1e-9


def test_branch_samples_satisfy_level_equation(corpus):
    alpha = np.exp(2.3j)
    for name, phi in corpus.items():
        h = phi.level_coeffs(alpha)
        scale = np.max(np.abs(h))
        for br in levelset.trace_branches(phi, alpha, 256):
            zeta = np.exp(1j * br.theta)[None, :]
            res = np.abs(poly._polyval_rows(
                levelset.slice_coeffs(h, zeta.ravel()[:, None]), br.values))
            assert np.max(res) < 1e-9 * scale, name


def test_grid_must_be_positive(fav):
    with pytest.raises(ValueError, match="at least 1"):
        clark.build_measure(fav, np.exp(0.7j), 0)
    with pytest.raises(ValueError, match="at least 1"):
        levelset.trace_branches(fav, np.exp(0.7j), 0)


def test_grid_need_not_be_a_power_of_two(fav):
    # any grid of roots of unity is a rule: N = 300 builds within the mass
    # gate and traces level points
    alpha = np.exp(0.7j)
    m = clark.build_measure(fav, alpha, 300)
    assert m.base.shape == (300, 1)
    assert abs(clark.total_mass(m) / clark.expected_mass(fav, alpha) - 1.0) \
        <= clark.MASS_GAP_TOL
    h = fav.level_coeffs(alpha)
    for br in levelset.trace_branches(fav, alpha, 300):
        assert br.values.shape == (300,)
        rows = levelset.slice_coeffs(h, np.exp(1j * br.theta)[:, None])
        res = np.abs(poly._polyval_rows(rows, br.values))
        assert np.max(res) <= 1e-9 * np.max(np.abs(h))


def test_grid_shift_is_the_midpoint_of_the_widest_gap():
    # no angle, one, or several equal modulo the step: half a step, bit
    # for bit the shift a grid took off one line before
    for n in (1, 2, 3, 17, 1024, 65536):
        step = 2 * np.pi / n
        assert grid_shift([], n) == grid_shift([0.0], n) == np.pi / n
        assert grid_shift([0.0, np.pi, 4 * step], 2 * n) == np.pi / (2 * n)
        # two lines half a step apart modulo it: a quarter step off each
        assert grid_shift([0.0, 7.5 * step], n) == 0.25 * step
        assert np.isclose(grid_shift([0.3 * step, 0.5 * step], n),
                          0.9 * step)


@pytest.mark.parametrize("N", [3, 17, 1025])
def test_odd_grid_misses_both_lines(squared, N):
    # squared at alpha = -1 has vertical lines at tau = 1 and -1; an odd
    # grid shifted half a step off the first put a node on the second (a
    # zero slice: mass off by 1 / (2N), and no trace).  The grid now sits
    # a quarter step off each
    m = clark.build_measure(squared, -1.0, N)
    assert np.allclose([ln.tau for ln in m.lines], [1.0, -1.0])
    assert abs(clark.total_mass(m) / clark.expected_mass(squared, -1.0)
               - 1.0) <= clark.MASS_GAP_TOL
    if N == 3:
        return
    branches = levelset.trace_branches(squared, -1.0, N)
    assert np.isclose(branches[0].theta[0], 0.5 * np.pi / N)
    assert np.all(np.isfinite([br.values for br in branches]))
    if N == 1025:
        pts = [(0.3 + 0.1j, -0.2 + 0.4j), (0.5j, 0.1), (-0.4, 0.3 - 0.2j),
               (0.6, -0.5j)]
        assert clark.verify_poisson(m, pts).max_rel_err <= 1e-12


def test_weights_are_nonnegative(fav):
    br = levelset.trace_branches(fav, np.exp(0.3j), 256)[0]
    assert np.min(br.weights) >= 0.0
    assert np.min(clark.build_measure(fav, np.exp(0.3j), 256).weights) >= 0.0


def test_detect_lines_generic_alpha_empty(fav, squared):
    assert levelset.detect_lines(fav, np.exp(0.7j)) == []
    assert levelset.detect_lines(squared, 1.0j) == []


@pytest.mark.parametrize("call", [
    lambda phi: levelset.trace_branches(phi, 1.0j, 16),
    lambda phi: levelset.detect_lines(phi, 1.0j),
    lambda phi: levelset.find_singularities(phi),
    lambda phi: contact.weight_vanish_order(phi, 1.0j, (1.0, 1.0)),
], ids=["trace_branches", "detect_lines",
        "find_singularities", "weight_vanish_order"])
def test_two_variable_routines_refuse_the_tridisk(call):
    with pytest.raises(ValueError, match="two-variable"):
        call(catalog.tridisk_rif(4.0))


def test_trace_branches_refuses_a_zero_slice_left_on_the_grid(fav,
                                                              monkeypatch):
    # with no vertical line reported the grid is not shifted, and at
    # alpha = -1 its node zeta1 = 1 lies on fav's line, where h's slice
    # vanishes exactly: the line's mass, half of it, is missing, and the
    # build's guard refuses before any label is read
    monkeypatch.setattr(clark, "_lines",
                        lambda hcoef, pcoef, axis=1: (np.empty(0), []))
    with pytest.raises(MassGapExceeded, match="relative 0.508"):
        levelset.trace_branches(fav, -1.0, 64)


def test_detect_lines_refuses_non_finite_alpha(fav):
    with pytest.raises(ValueError):
        levelset.detect_lines(fav, np.nan)


def test_fav_exceptional_lines():
    phi = catalog.simple_singular_rif()
    lines = levelset.detect_lines(phi, -1.0 + 0.0j)
    assert {(ln.axis, complex(ln.tau)) for ln in lines} == \
        {(1, 1.0 + 0.0j), (2, 1.0 + 0.0j)}
    for ln in lines:
        assert abs(ln.constant - 0.5) < 1e-12


def test_squared_exceptional_lines(squared):
    lines = levelset.detect_lines(squared, -1.0 + 0.0j)
    got = {(ln.axis, round(ln.tau.real)) for ln in lines}
    assert got == {(1, 1), (1, -1), (2, 1), (2, -1)}
    for ln in lines:
        assert abs(ln.constant - 0.25) < 1e-12


def _zero_columns():
    """(h, p, axis) of the catalog and of random draws of bidegrees
    (1..3)^2, strict and singular, at six alphas, both axes."""
    rifs = [catalog.monomial_rif(), catalog.simple_singular_rif(),
            catalog.squared_singular_rif(), catalog.product_singular_rif(),
            catalog.diagonal_rif()]
    rifs += [catalog.random_rif(n1, n2, seed, singular=singular)
             for n1 in (1, 2, 3) for n2 in (1, 2, 3) for seed in (1, 2, 3)
             for singular in (False, True)]
    for phi in rifs:
        for alpha in (1.0, -1.0, 1.0j, np.exp(0.7j), np.exp(-1.9j),
                      np.exp(2.5j)):
            h, p = phi.level_coeffs(alpha), phi.den.coeffs
            yield h, p, 1
            yield h.T, p.T, 2


def _trim_column(col):
    """``col`` (n + 1, 1) without its trailing entries of modulus at most
    1e-14 times its largest: the reference a trimmed column is."""
    size = np.abs(col[:, 0])
    keep = len(col)
    while keep > 1 and size[keep - 1] <= 1e-14 * size.max():
        keep -= 1
    return col[:keep]


def test_zero_column_roots_need_no_trim():
    # companion_roots drops trailing coefficients below its own degree-drop
    # tolerance, so the untrimmed column h(., 0) gives the trimmed column's
    # roots bit for bit and NaN after them
    count = trimmed = 0
    for h, p, axis in _zero_columns():
        roots = levelset._lines(h, p, axis)[0]
        short = _trim_column(h[:, :1])
        want = poly.companion_roots(short)[:, 0]
        assert roots[:len(want)].tobytes() == want.tobytes()
        assert np.all(np.isnan(roots[len(want):]))
        count += 1
        trimmed += len(short) < len(h)
    assert count == 708 and trimmed > 0


def test_trace_branches_seeks_vertical_lines_only(fav, monkeypatch):
    # fav at alpha = -1 has a line on each axis; the grid shift needs only
    # the vertical one, whose slices vanish
    axes, lines = [], clark._lines

    def spy(h, p, axis=1):
        axes.append(axis)
        return lines(h, p, axis)

    monkeypatch.setattr(clark, "_lines", spy)
    levelset.trace_branches(fav, -1.0, 256)
    assert axes == [1]


def test_trace_branches_solves_once_at_a_line(fav, squared, monkeypatch):
    # the vertical lines are found before the solve, so a grid that would
    # hit one is shifted first and solved once: the build's own solve, of
    # every node
    calls, atoms = [], clark._atom_blocks

    def spy(hcoef, pcoef, pts, *out):
        calls.append(len(pts))
        return atoms(hcoef, pcoef, pts, *out)

    monkeypatch.setattr(clark, "_atom_blocks", spy)
    monkeypatch.setattr(levelset, "_atom_blocks", spy)
    for phi in (fav, squared):
        calls.clear()
        levelset.trace_branches(phi, -1.0, 256)
        assert calls == [256]


def test_trace_branches_forms_the_shifted_grid_once(squared, monkeypatch):
    # squared at -1 has vertical lines, so the grid is shifted off them:
    # the build forms its nodes, and the labeled angles take only the
    # shift, not a second grid of N points
    calls, points = [], levelset.unit_circle_points

    def spy(theta):
        calls.append(len(theta))
        return points(theta)

    monkeypatch.setattr(levelset, "unit_circle_points", spy)
    levelset.trace_branches(squared, -1.0, 4096)
    assert calls == [4096]


def test_trace_branches_shifts_off_a_line_between_nodes():
    # at this draw's alpha0 the vertical line misses the uniform grid
    # (its nearest node 0.12 pi / N away), so no slice vanishes; the grid
    # is still shifted half a step off it
    phi = catalog.random_rif(1, 1, 0, singular=True)
    alpha = contact.nontangential_value(phi, catalog.planted_zero(0))
    (line,) = [ln for ln in levelset.detect_lines(phi, alpha) if ln.axis == 1]
    N = 256
    theta = levelset.trace_branches(phi, alpha, N)[0].theta
    gap = np.abs(np.angle(np.exp(1j * (theta - np.angle(line.tau)))))
    assert gap.min() >= np.pi / (4 * N)


def _line_cases():
    """(phi, alpha) of the catalog at -1 and of singular draws at their
    alpha0, where the level set holds lines."""
    for phi in (catalog.simple_singular_rif(), catalog.squared_singular_rif(),
                catalog.product_singular_rif()):
        yield phi, -1.0 + 0.0j
    for n1, n2 in ((1, 1), (2, 1), (3, 1), (1, 2), (1, 3)):
        for seed in (2, 5, 11):
            phi = catalog.random_rif(n1, n2, seed, singular=True)
            yield phi, contact.nontangential_value(phi,
                                                   catalog.planted_zero(seed))


def test_line_constants_satisfy_the_line_identity():
    # a line's constant is 1 / |d phi / d z_axis| = |p / d h|, one modulus
    # all along the line: check it at 64 points of each line, both axes
    w = np.exp(2j * np.pi * (np.arange(64) + 0.3) / 64)
    count = 0
    for phi, alpha in _line_cases():
        h, p = phi.level_coeffs(alpha), phi.den.coeffs
        for ln in levelset.detect_lines(phi, alpha):
            tau = np.full_like(w, ln.tau)
            at = (tau, w) if ln.axis == 1 else (w, tau)
            dh = poly.derivative_coeffs(h, ln.axis)
            ratio = np.abs(poly._eval_tensor(dh, at)
                           / poly._eval_tensor(p, at))
            assert np.max(np.abs(ln.constant * ratio - 1.0)) <= 1e-12, \
                (ln, alpha)
            count += 1
    assert count >= 20


def test_classify_alpha(fav, tmp_path, capsys):
    # the levelset command classes alpha by the lines detect_lines finds
    path = tmp_path / "fav.json"
    path.write_text(poly_to_json(fav.den))
    for alpha, kind, count in (("i", "generic", 0), ("-1", "exceptional", 2)):
        assert main(["levelset", "--poly", str(path), "--alpha", alpha,
                     "--grid", "256", "--out", str(tmp_path / "b.csv")]) == 0
        out = capsys.readouterr().out
        assert f"alpha class: {kind}\n" in out
        assert out.count("  line axis=") == count


@pytest.mark.parametrize("dt", [1e-6, -1e-6, 1e-8, -1e-8])
def test_no_phantom_lines_next_to_exceptional_alpha(fav, squared, dt):
    # h's slice at the torus zero (1, 1) is (alpha0 - alpha) p(1, .),
    # 1.6e-8 of h's scale at |t - 1| = 1e-8, above LINE_TOL: no line, and
    # each build returns or raises MassGapExceeded (the rounding floor
    # next to the singularity)
    alpha = np.exp(1j * np.pi * (1.0 + dt))
    for phi in (fav, squared):
        assert levelset.detect_lines(phi, alpha) == []
        try:
            clark.build_measure(phi, alpha, 512)
        except MassGapExceeded:
            pass


def test_line_decided_within_tolerance_of_exceptional_alpha(fav):
    # at |t - 1| = 1e-9 the slice at (1, 1) is within LINE_TOL, so the
    # line is split off and the build is accurate
    alpha = np.exp(1j * np.pi * (1.0 + 1e-9))
    m = clark.build_measure(fav, alpha, 512)
    assert [ln.axis for ln in m.lines] == [1]
    assert abs(m.lines[0].tau - 1.0) < 1e-8
    assert abs(clark.total_mass(m) / clark.expected_mass(fav, alpha) - 1.0) \
        <= 1e-10


def _squared_den(phi):
    """The RIF with denominator p^2: (q / p)^2."""
    c = phi.den.coeffs
    out = np.zeros((2 * c.shape[0] - 1, 2 * c.shape[1] - 1), dtype=complex)
    for (i, j), v in np.ndenumerate(c):
        out[i:i + c.shape[0], j:j + c.shape[1]] += v * c
    return Rif(PolyMD(out))


@pytest.mark.parametrize("square", [False, True])
@pytest.mark.parametrize("n1, n2", [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3)])
def test_lines_at_alpha0_of_singular_draws(n1, n2, square):
    # a planted torus zero tau of a bidegree-(n, 1) draw puts p(tau1, .)
    # at degree 1 with its root on the circle, so at alpha0 = phi*(tau)
    # the level set holds the line {tau1} x T; (1, n) draws hold
    # T x {tau2}.  With p squared, (q / p)^2 = alpha0^2 holds the same line
    for seed in (2, 5, 11):
        phi = catalog.random_rif(n1, n2, seed, singular=True)
        if square:
            phi = _squared_den(phi)
        tau = catalog.planted_zero(seed)
        alpha0 = contact.nontangential_value(phi, tau)
        lines = levelset.detect_lines(phi, alpha0)
        for axis, n in ((1, n2), (2, n1)):
            if n == 1:
                assert any(ln.axis == axis and abs(ln.tau - tau[axis - 1])
                           <= 1e-12 for ln in lines), (n1, n2, seed, lines)
        clark.build_measure(phi, alpha0, 1024)  # the mass guard passes


def test_find_singularities(corpus):
    expected = {
        "fav": [(1, 1)],
        "squared": [(1, 1), (1, -1), (-1, 1), (-1, -1)],
        "product": [(1, 1)],
        "diagonal": [],
        "monomial": [],
    }
    for name, pts in expected.items():
        sings = levelset.find_singularities(corpus[name])
        assert len(sings) == len(pts), name
        for got, want in zip(sings, pts):
            assert abs(got[0] - want[0]) < 1e-12 and \
                abs(got[1] - want[1]) < 1e-12, (name, got, want)


def composed_fav(k1, k2, a=1.0, b=1.0):
    """2 - conj(a) z1^k1 - conj(b) z2^k2: fav composed with (z1^k1, z2^k2)
    and rotated, zero on the torus where z1^k1 = a and z2^k2 = b."""
    c = np.zeros((k1 + 1, k2 + 1), dtype=complex)
    c[0, 0] = 2.0
    c[k1, 0] = -np.conj(a)
    c[0, k2] = -np.conj(b)
    return Rif(PolyMD(c))


@pytest.mark.parametrize("k1, k2, a, b", [
    (3, 1, 1.0, 1.0), (2, 3, 1.0, 1.0), (3, 3, 1.0, 1.0), (1, 4, 1.0, 1.0),
    (1, 1, np.exp(0.7j), np.exp(-2.1j))])
def test_singularities_exactly_located(k1, k2, a, b):
    # k1 k2 torus zeros, each where R has a zero of multiplicity 2 k2
    phi = composed_fav(k1, k2, a, b)
    sings = levelset.find_singularities(phi)
    assert len(sings) == k1 * k2
    roots1 = a ** (1 / k1) * np.exp(2j * np.pi * np.arange(k1) / k1)
    roots2 = b ** (1 / k2) * np.exp(2j * np.pi * np.arange(k2) / k2)
    for t1, t2 in sings:
        assert np.min(np.abs(roots1 - t1)) < 1e-12
        assert np.min(np.abs(roots2 - t2)) < 1e-12
        assert abs(phi.den(t1, t2)) <= 1e-14 * phi.den.coefficient_scale()
    # no point twice
    assert len({(round(t1.real, 6), round(t1.imag, 6), round(t2.real, 6),
                 round(t2.imag, 6)) for t1, t2 in sings}) == k1 * k2


def test_singularity_of_a_repeated_factor():
    # p = f^2 for the rotated fav f: R has an 8-fold zero and every slice
    # a double root, which is polished on d/dz2 p, vanishing on f = 0 too
    a, b = np.exp(0.4j), np.exp(-1.3j)
    f = composed_fav(1, 1, a, b).den.coeffs
    c = np.zeros((3, 3), dtype=complex)
    for i, j in np.ndindex(2, 2):
        c[i:i + 2, j:j + 2] += f[i, j] * f
    sings = levelset.find_singularities(Rif(PolyMD(c)))
    assert len(sings) == 1
    assert abs(sings[0][0] - a) < 1e-12 and abs(sings[0][1] - b) < 1e-12


def test_singularities_at_padded_degrees(fav, product):
    # p~ is taken at p's own degrees, so product's padding changes nothing
    assert product.degrees == (2, 2) and product.den.degrees == (1, 1)
    assert levelset.find_singularities(product) == \
        levelset.find_singularities(fav)
    assert levelset.find_singularities(Rif(fav.den, (3, 2))) == \
        levelset.find_singularities(fav)


def test_singularity_search_evaluates_in_batches(squared, monkeypatch):
    # one resultant and one batched polish: a polish per seed would make
    # thousands of tensor evaluations
    calls = []
    tensor = poly._eval_tensor

    def counted(*args):
        calls.append(1)
        return tensor(*args)

    monkeypatch.setattr(poly, "_eval_tensor", counted)
    assert len(levelset.find_singularities(squared)) == 4
    assert len(calls) <= 4


def test_blaschke_node_rule_near_exceptional(fav, squared):
    # squared near -1: b = phi(., 0) = -z^2 / (2 - z^2) takes the value
    # alpha at z*^2 = 2 alpha / (alpha - 1), two poles just outside the
    # circle, so B has degree 3 and every grid point has 3 preimages
    alpha = -np.exp(0.05j)
    N = 512
    m = clark.build_measure(squared, alpha, N)
    zeta1, quad, lines = clark._zeta1_rule(squared, alpha, N)
    assert lines == []
    assert np.all(np.abs(np.abs(zeta1) - 1.0) <= 2 * EPS)
    # root-major, as the slice kernel returns atoms: sorted, the 3 N angles
    # are distinct and within one turn
    theta = np.sort(np.angle(zeta1))
    assert len(theta) == 3 * N and np.all(np.diff(theta) > 0)
    assert theta[-1] - theta[0] < 2 * np.pi
    # the nodes are the base, each once, with two roots over each
    assert np.array_equal(m.base[:, 0], zeta1)
    assert m.atoms.shape == m.weights.shape == (2, 3 * N)
    assert abs(np.sum(quad) - 1.0) < 1e-12
    zs = np.sqrt(2 * alpha / (alpha - 1)) * np.array([1, -1])
    a = 1 / np.conj(zs)
    z = zeta1[:, None]
    B = z[:, 0] * np.prod((z - a) / (1 - np.conj(a) * z), axis=1)
    k = np.angle(B) * N / (2 * np.pi)
    assert np.max(np.abs(k - np.round(k))) < 1e-9
    # the 3 nodes over each grid point w carry weights summing to 1/N
    order = np.argsort(np.round(k) % N, kind="stable")
    assert np.allclose(quad[order].reshape(N, 3).sum(axis=1), 1.0 / N,
                       rtol=1e-12, atol=0.0)
    # labeled branches take every node, in order of angle
    for br in levelset.trace_branches(squared, alpha, N):
        assert br.grid_n == len(m.base) == 3 * N
        assert np.array_equal(br.theta, np.sort(np.angle(zeta1) % (2 * np.pi)))
    # far from -1 the poles are resolved and the rule is the uniform grid
    N = 65536
    uniform = 2 * np.pi * np.arange(N) / N
    for phi in (fav, squared):
        alpha = np.exp(0.7j * np.pi)
        rule, quad, lines = clark._zeta1_rule(phi, alpha, N)
        assert lines == []
        assert np.array_equal(rule, unit_circle_points(uniform))
        assert np.all(quad == 1.0 / N)
        m = clark.build_measure(phi, alpha, N)
        assert np.array_equal(m.base[:, 0], np.exp(1j * uniform))
        assert m.atoms.shape == (phi.degrees[1], N)


@pytest.mark.parametrize("name, alpha, nodes", [
    ("contact_four", np.exp(1j * np.pi * (1 + 1e-4)), 1024),
    ("contact_four", np.exp(1j * np.pi * (1 - 1e-4)), 1024),
    ("fav", -1.0, 1024), ("squared", -1.0, 1024),
    ("fav", np.exp(1j * np.pi * 1.01), 2048),
    ("squared", np.exp(1j * np.pi * 0.995), 3072)],
    ids=["contact_four_plus", "contact_four_minus", "fav", "squared",
         "fav_clustered", "squared_clustered"])
def test_labeled_branches_lie_on_the_measure_nodes(name, alpha, nodes):
    # one grid off the vertical lines (levelset._zeta1_grid): where the
    # zeta1 rule does not cluster, the labeled branches sample the
    # measure's own base nodes bit for bit, a line at tau != 1 included
    # (contact_four next to -1: one line at e^{+-1.57e-4 i}); where it
    # clusters, they take the nodes sorted by angle.  At every node the
    # branch values are a permutation of the measure's atoms there, and
    # their weights the same permutation of the measure's weights over the
    # rule's, bit for bit
    phi = {"contact_four": catalog.contact_four_rif,
           "fav": catalog.simple_singular_rif,
           "squared": catalog.squared_singular_rif}[name]()
    N = 1024
    m = clark.build_measure(phi, alpha, N)
    clustered = nodes > N
    assert len(m.base) == nodes and bool(m.lines) != clustered
    if name == "contact_four":
        assert [ln.tau != 1.0 for ln in m.lines] == [True]
    theta = np.angle(m.base[:, 0]) % (2 * np.pi)
    order = np.argsort(theta) if clustered else np.arange(N)
    branches = levelset.trace_branches(phi, alpha, N)
    for br in branches:
        if clustered:
            assert np.array_equal(br.theta, theta[order])
        else:
            assert np.array_equal(unit_circle_points(br.theta), m.base[:, 0])
    quad = clark._zeta1_rule(phi, alpha, N)[1]
    got = np.array([br.values for br in branches])
    want = m.atoms[:, order]
    by_got, by_want = np.argsort(got, axis=0), np.argsort(want, axis=0)
    assert np.array_equal(np.take_along_axis(got, by_got, 0),
                          np.take_along_axis(want, by_want, 0))
    weights = np.array([br.weights for br in branches])
    assert np.array_equal(np.take_along_axis(weights, by_got, 0),
                          np.take_along_axis((m.weights / quad)[:, order],
                                             by_want, 0))


def test_trace_branches_projects_alpha_onto_the_circle(squared):
    # 1e-6 off the circle is refused; 1e-12 off is projected, and every
    # branch carries alpha / |alpha| and the branches of that value
    with pytest.raises(ValueError, match="unimodular"):
        levelset.trace_branches(squared, np.exp(0.7j) * (1.0 + 1e-6), 64)
    alpha = np.exp(0.7j) * (1.0 + 1e-12)
    got, on = (levelset.trace_branches(squared, a, 64)
               for a in (alpha, alpha / abs(alpha)))
    for br, ref in zip(got, on, strict=True):
        assert br.alpha == ref.alpha == alpha / abs(alpha)
        assert np.array_equal(br.values, ref.values)
        assert np.array_equal(br.weights, ref.weights)


def test_branch_csv_format(fav):
    br = levelset.trace_branches(fav, 1.0 + 0.0j, 256)[0]
    lines = levelset.branch_csv_lines(br, "fav", 0)
    assert lines[0].startswith("# rif=fav alpha=")
    assert "N=256" in lines[0]
    assert lines[1] == "theta,re_g,im_g,weight"
    first = lines[2].split(",")
    assert len(first) == 4
    assert abs(float(first[0]) - br.theta[0]) < 1e-16


def test_branch_csv_lines_are_17_digit_values():
    # every value printed with %.17g, NaN samples (an empty atom) included
    theta = np.array([0.0, 0.1, 2.0 / 3.0])
    values = np.array([np.exp(0.3j), np.nan, -1e-300 + 7.1j])
    weights = np.array([1.0 / 3.0, np.nan, 5e-324])
    br = levelset.Branch(alpha=np.exp(0.7j), theta=theta, values=values,
                         weights=weights)
    lines = levelset.branch_csv_lines(br, "x", 2)
    assert lines[:2] == [f"# rif=x alpha={br.alpha.real:.17g}"
                         f"{br.alpha.imag:+.17g}j N=3 branch=2",
                         "theta,re_g,im_g,weight"]
    assert lines[2:] == [",".join("%.17g" % x for x in row) for row in zip(
        theta, values.real, values.imag, weights)]
    # a NaN value is NaN + 0j, as trace_branches pads its branches
    assert lines[3] == "0.10000000000000001,nan,0,nan"


@given(st.floats(min_value=0.05, max_value=1.95))
@settings(max_examples=8, deadline=None)
def test_traced_branches_are_unimodular_level_points(t):
    # any alpha except the exceptional value -1 (t == 1)
    assume(abs(t - 1.0) > 0.05)
    phi = catalog.simple_singular_rif()
    alpha = np.exp(1j * np.pi * t)
    branches = levelset.trace_branches(phi, alpha, 256)
    assert len(branches) == 1
    br = branches[0]
    assert np.max(np.abs(np.abs(br.values) - 1.0)) < 1e-9
    zeta = np.exp(1j * br.theta)
    # polynomial form of the level equation is exact even at the
    # singularity (1,1) that every branch of this family passes through
    res = phi.num(zeta, br.values) - alpha * phi.den(zeta, br.values)
    scale = np.max(np.abs(phi.level_coeffs(alpha)))
    assert np.max(np.abs(res)) < 1e-8 * scale
    assert np.min(br.weights) >= 0.0


@pytest.mark.parametrize("t", [-0.94, 0.935, 0.985, -0.985, 0.995, -0.995])
def test_coarse_grid_labels_equal_fine_grid_labels(squared, t):
    # near alpha = -1 the two branches of squared move further between
    # coarse grid points than the gap between them; phase labels do not
    # depend on the grid, so N = 256 labels every shared node as N = 65536
    # does.  Both rules cluster at the same two poles, and N's grid in
    # w = B(zeta1) is every 256th point of the fine one's, so every coarse
    # node is a fine node bit for bit
    alpha = np.exp(1j * np.pi * t)
    coarse, fine = (levelset.trace_branches(squared, alpha, N)
                    for N in (256, 65536))
    _, at_c, at_f = np.intersect1d(coarse[0].theta, fine[0].theta,
                                   return_indices=True)
    assert len(at_c) == coarse[0].grid_n == 3 * 256
    coarse = np.array([br.values[at_c] for br in coarse])
    fine = np.array([br.values[at_f] for br in fine])
    assert np.array_equal(coarse, fine) or np.array_equal(coarse, fine[::-1])


def test_wrap_rule_and_line_swap(fav, squared):
    # past theta = 2 pi, branch (b + deg_z1) mod n continues as branch b;
    # z2^2 fav has n = 3 slice roots, so the sign of the shift shows
    for degrees in ((1, 3), (2, 3)):
        branches = levelset.trace_branches(Rif(fav.den, degrees), 1.0j, 1024)
        vals = np.array([br.values for br in branches])
        for b in range(3):
            last = vals[(b + degrees[0]) % 3, -1]
            assert np.argmin(np.abs(vals[:, 0] - last)) == b
    # squared at -1: the horizontal-line branches swap labels at the
    # vertical line theta = pi
    branches = levelset.trace_branches(squared, -1.0 + 0.0j, 256)
    before = branches[0].theta < np.pi
    assert np.max(np.abs(branches[0].values[before] - 1.0)) < 1e-12
    assert np.max(np.abs(branches[0].values[~before] + 1.0)) < 1e-12
    assert np.max(np.abs(branches[1].values + branches[0].values)) < 1e-12


def test_phase_labels_refuse_unresolved_reference(fav, monkeypatch):
    # phi(zeta1, 1) = -1 for fav: its phase gains 0, not 2 pi, in a turn
    monkeypatch.setattr(levelset, "_REF_CIRCLES", (1.0 + 0.0j,))
    with pytest.raises(PhaseLabelFailure):
        levelset.trace_branches(fav, np.exp(0.7j), 256)


def test_serial_fallback_traces_level_points(squared, product):
    # at alpha = -1 the branches of these two meet (and squared has
    # vertical lines at zeta1 = +-1, which the grid is shifted off), yet
    # every value is a unimodular point of the level set.  Where two
    # branches meet the slice has a double root, which companion
    # eigenvalues resolve only to ~sqrt(eps) (product: 8.6e-9 off the
    # circle at theta = 0), so those values get 1e-7
    alpha = -1.0 + 0.0j
    N = 4096
    for phi in (squared, product):
        branches = levelset.trace_branches(phi, alpha, N)
        scale = np.max(np.abs(phi.level_coeffs(alpha)))
        vals = np.array([br.values for br in branches])
        assert not np.isnan(vals).any()
        assert not np.isnan([br.weights for br in branches]).any()
        meet = np.abs(vals[0] - vals[1]) < 1e-6
        off = np.abs(np.abs(vals) - 1.0)
        assert np.max(off[:, ~meet]) < 1e-9
        assert np.max(off[:, meet], initial=0.0) < 1e-7
        for br in branches:
            zeta = np.exp(1j * br.theta)
            res = phi.num(zeta, br.values) - alpha * phi.den(zeta, br.values)
            assert np.max(np.abs(res)) < 1e-8 * scale
    shifted = 2 * np.pi * np.arange(N) / N + np.pi / N
    assert np.array_equal(levelset.trace_branches(squared, alpha, N)[0].theta,
                          shifted)


def test_measure_path_traces_no_branch(corpus, monkeypatch):
    # every measure builder takes all slice roots unlabeled, so branch
    # labels are never computed, even where branches meet
    def refuse(*args, **kwargs):
        raise AssertionError("branch labels ran on the measure path")

    monkeypatch.setattr(levelset, "_phase_labels", refuse)
    for name in ("fav", "squared", "product", "diagonal"):
        phi = corpus[name]
        for alpha in (np.exp(0.7j), 1.0 + 0.0j, -1.0 + 0.0j, -np.exp(0.05j)):
            m = clark.build_measure(phi, alpha, 256)
            assert abs(clark.total_mass(m) - clark.expected_mass(phi, alpha)) \
                < 1e-8, (name, alpha)
        assert max(embedding.conj_rational(phi, np.exp(0.7j)).max_residual) \
            < 1e-10
        roots, _, _, _ = slice_atoms(phi, np.exp(0.7j),
                                     np.array([[np.exp(0.4j)]]))
        assert not np.isnan(roots).all()
    phi = catalog.tridisk_rif(4.0)
    m = polydisk.build_measure_d(phi, np.exp(0.9j), 32)
    assert abs(clark.total_mass(m) - 1.0) < 1e-8
