from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rifclark import catalog, levelset
from rifclark.errors import NonConstantDerivative


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
            res = np.abs(levelset._polyval_rows(
                levelset.slice_coeffs(h, zeta.ravel()[:, None]), br.values))
            assert np.max(res) < 1e-9 * scale, name


def test_grid_must_be_power_of_two(fav):
    with pytest.raises(ValueError):
        levelset.trace_branches(fav, 1.0 + 0.0j, 300)


def test_weights_are_nonnegative(fav):
    br = levelset.trace_branches(fav, np.exp(0.3j), 256)[0]
    assert np.min(br.weights) >= 0.0
    assert np.min(br.extra_weights, initial=0.0) >= 0.0


def test_detect_lines_generic_alpha_empty(fav, squared):
    assert levelset.detect_lines(fav, np.exp(0.7j)) == []
    assert levelset.detect_lines(squared, 1.0j) == []


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


def test_classify_alpha(fav):
    assert levelset.classify_alpha(fav, 1.0j).kind == "generic"
    cls = levelset.classify_alpha(fav, -1.0 + 0.0j)
    assert cls.kind == "exceptional"
    assert len(cls.lines) == 2


def test_line_constant_rejects_non_line(fav):
    with pytest.raises(NonConstantDerivative):
        levelset.line_constant(fav, 1.0j, 1.0 + 0.0j, axis=1)


def test_find_singularities(fav, squared, monomial, diagonal):
    sings = levelset.find_singularities(fav)
    assert len(sings) == 1
    assert abs(sings[0][0] - 1) < 1e-10 and abs(sings[0][1] - 1) < 1e-10

    sings = levelset.find_singularities(squared)
    assert len(sings) == 4
    got = sorted((round(s[0].real), round(s[1].real)) for s in sings)
    assert got == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    assert levelset.find_singularities(monomial) == []
    assert levelset.find_singularities(diagonal) == []


def test_spike_refinement_adds_extras_near_exceptional(squared):
    alpha = -np.exp(0.05j)
    br = levelset.trace_branches(squared, alpha, 512)[0]
    assert len(br.extra_ticks) > 0
    # extras live strictly between base nodes on the fine grid
    fine = br.grid_n * levelset.REFINE_FACTOR ** levelset.MAX_SPIKE_LEVELS
    step = fine // br.grid_n
    assert np.all(br.extra_ticks % step != 0) or np.all(
        br.extra_ticks % (fine // br.grid_n) != 0)
    plain = levelset.trace_branches(squared, alpha, 512, spike_refine=False)[0]
    assert len(plain.extra_ticks) == 0


def test_branch_csv_format(fav, tmp_path):
    br = levelset.trace_branches(fav, 1.0 + 0.0j, 256)[0]
    path = tmp_path / "b.csv"
    levelset.export_branch_csv(br, path, "fav", 0)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# rif=fav alpha=")
    assert "N=256" in lines[0]
    assert lines[1] == "theta,re_g,im_g,weight"
    first = lines[2].split(",")
    assert len(first) == 4
    assert abs(float(first[0]) - br.theta[0]) < 1e-16


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


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_assign_matches_brute_force_minimum(data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 5))
    cost = np.array(data.draw(st.lists(
        st.floats(0.0, 10.0), min_size=n * m, max_size=n * m))).reshape(n, m)
    rows, cols = levelset.assign(cost)
    k = min(n, m)
    assert len(rows) == len(cols) == k
    assert np.all(np.diff(rows) > 0) and len(set(cols.tolist())) == k
    if n <= m:
        best = min(cost[np.arange(n), list(c)].sum()
                   for c in permutations(range(m), n))
    else:
        best = min(cost[list(r), np.arange(m)].sum()
                   for r in permutations(range(n), m))
    assert abs(cost[rows, cols].sum() - best) <= 1e-12 * (1.0 + best)
