from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rifclark import blaschke, catalog, clark, embedding, levelset, polydisk
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
    assert np.min(clark.build_measure(fav, np.exp(0.3j), 256).weights) >= 0.0


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


def test_blaschke_node_rule_near_exceptional(fav, squared):
    # squared near -1: b = phi(., 0) = -z^2 / (2 - z^2) takes the value
    # alpha at z*^2 = 2 alpha / (alpha - 1), two poles just outside the
    # circle, so B has degree 3 and every grid point has 3 preimages
    alpha = -np.exp(0.05j)
    N = 512
    m = clark.build_measure(squared, alpha, N)
    theta, quad = clark._zeta1_rule(squared, alpha, N, [])
    assert len(theta) == 3 * N and np.all(np.diff(theta) > 0)
    assert theta[-1] - theta[0] < 2 * np.pi
    # two roots over each node, listed root column by root column
    assert np.array_equal(m.nodes[:, 0].reshape(2, -1),
                          np.exp(1j * np.array([theta, theta])))
    assert abs(np.sum(quad) - 1.0) < 1e-12
    zs = np.sqrt(2 * alpha / (alpha - 1)) * np.array([1, -1])
    a = 1 / np.conj(zs)
    z = np.exp(1j * theta)[:, None]
    B = z[:, 0] * np.prod((z - a) / (1 - np.conj(a) * z), axis=1)
    k = np.angle(B) * N / (2 * np.pi)
    assert np.max(np.abs(k - np.round(k))) < 1e-9
    # the 3 nodes over each grid point w carry weights summing to 1/N
    order = np.argsort(np.round(k) % N, kind="stable")
    assert np.allclose(quad[order].reshape(N, 3).sum(axis=1), 1.0 / N,
                       rtol=1e-12, atol=0.0)
    # labeled branches stay on the uniform grid
    assert [br.grid_n for br in levelset.trace_branches(squared, alpha, N)] \
        == [N, N]
    # far from -1 the poles are resolved and the rule is the uniform grid
    N = 65536
    uniform = 2 * np.pi * np.arange(N) / N
    for phi in (fav, squared):
        alpha = np.exp(0.7j * np.pi)
        rule_theta, quad = clark._zeta1_rule(phi, alpha, N, [])
        assert np.array_equal(rule_theta, uniform)
        assert np.all(quad == 1.0 / N)
        m = clark.build_measure(phi, alpha, N)
        assert np.array_equal(m.nodes[:N, 0], np.exp(1j * uniform))
        assert len(m.nodes) == N * phi.degrees[1]


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


@st.composite
def root_rows(draw, n_rows):
    """Padded slice-root rows of k <= 4 branches: each row is the previous
    one nudged, with branches that close in on each other (near-ties),
    swaps, duplicate roots, degree drops and extra roots (NaN padding)
    and zero slices (all NaN)."""
    k = draw(st.integers(1, 4))
    width = k + draw(st.integers(0, 1))
    unit = st.floats(-1.0, 1.0)

    def noise(n):
        return np.array([complex(draw(unit), draw(unit)) for _ in range(n)])

    cur = noise(k)
    scale = draw(st.integers(-14, -2))  # step sizes of one example agree
    rows = np.full((n_rows, width), np.nan, dtype=complex)
    for i in range(n_rows):
        kind = draw(st.sampled_from(["move", "move", "close", "close", "swap",
                                     "dup", "drop", "extra", "zero"]))
        nudge = 10.0 ** draw(st.integers(scale, scale + 1))
        cur = cur + nudge * noise(k)
        if kind == "close" and k > 1:
            cur[1] = cur[0] + nudge * noise(1)[0]
        row = np.append(cur, noise(1))
        if kind == "swap":
            row[:k] = row[np.array(draw(st.permutations(range(k))))]
        elif kind == "dup" and k > 1:
            row[1] = row[0]
        count = {"drop": draw(st.integers(0, k - 1)), "zero": 0,
                 "extra": width}.get(kind, k)
        rows[i, :count] = row[:count]
    return k, rows


# root 1 sits 1.7 or 2.1 times as far from old root 0 as new root 0 does
@example((2, np.array([[0.0, 1.7e-3], [1e-3j, 1.7e-3 + 1e-9]])))
@example((2, np.array([[0.0, 2.1e-3], [1e-3j, 2.1e-3 + 1e-9]])))
@given(root_rows(2))
@settings(max_examples=300, deadline=None)
def test_clean_steps_agree_with_match_column(drawn):
    k, rows = drawn
    near, clean = levelset._clean_steps(rows, k)
    if clean[1]:
        assert not np.isnan(rows[:, :k]).any()
        col, ambiguous = levelset._match_column(rows[0, :k], rows[1])
        assert np.array_equal(col, rows[1, near[:, 1]]) and not ambiguous


@given(root_rows(24), st.booleans())
@settings(max_examples=200, deadline=None)
def test_continuation_equals_serial_matching_at_every_step(drawn, keep_nan):
    # _continue runs the serial matcher only at non-clean steps; its
    # labels must be those of running it at every step, bit for bit
    k, rows = drawn
    seeds = np.exp(1j * np.arange(k))

    def serial(i, ref):
        ref = seeds if ref is None else ref
        if np.isnan(rows[i]).all():
            return (np.nan if keep_nan else ref), ref
        col, _ = levelset._match_column(ref, rows[i])
        return col, np.where(np.isnan(col), ref, col)

    got, got_ref = levelset._continue(rows, k, serial)
    want = np.empty_like(got)
    ref = None
    for i in range(len(rows)):
        want[:, i], ref = serial(i, ref)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(got_ref, ref, equal_nan=True)


@pytest.fixture
def match_calls(monkeypatch):
    """Records every call of the serial matcher levelset._match_column."""
    calls = []
    match = levelset._match_column

    def counted(*args):
        calls.append(1)
        return match(*args)

    monkeypatch.setattr(levelset, "_match_column", counted)
    return calls


def test_generic_alpha_traces_with_few_serial_matches(corpus, match_calls):
    calls = match_calls
    for name in ("fav", "squared", "product", "diagonal"):
        for alpha in (np.exp(0.7j), np.exp(2.3j)):
            calls.clear()
            levelset.trace_branches(corpus[name], alpha, 4096)
            assert len(calls) <= 16, (name, alpha, len(calls))


def test_serial_fallback_traces_level_points(squared, product, match_calls):
    # at alpha = -1 the branches of these two meet, so some steps go
    # through the serial matcher; every traced value must still be a
    # unimodular point of the level set.  Where two branches meet the
    # slice has a double root, which companion eigenvalues resolve only
    # to ~sqrt(eps) (product: 8.6e-9 off the circle at theta = 0), so
    # those values get 1e-7
    calls = match_calls
    alpha = -1.0 + 0.0j
    for phi in (squared, product):
        calls.clear()
        branches = levelset.trace_branches(phi, alpha, 4096)
        assert calls
        scale = np.max(np.abs(phi.level_coeffs(alpha)))
        vals = np.array([br.values for br in branches])
        meet = np.abs(vals[0] - vals[1]) < 1e-6
        off = np.abs(np.abs(vals) - 1.0)
        assert np.max(off[:, ~meet]) < 1e-9
        assert np.max(off[:, meet], initial=0.0) < 1e-7
        for br in branches:
            zeta = np.exp(1j * br.theta)
            res = phi.num(zeta, br.values) - alpha * phi.den(zeta, br.values)
            assert np.max(np.abs(res)) < 1e-8 * scale


def test_measure_path_traces_no_branch(corpus, monkeypatch):
    # every measure builder takes all slice roots unlabeled, so branch
    # continuation and matching never run, even where branches meet
    def refuse(*args):
        raise AssertionError("branch continuation ran on the measure path")

    monkeypatch.setattr(levelset, "_continue", refuse)
    monkeypatch.setattr(levelset, "_match_column", refuse)
    for name in ("fav", "squared", "product", "diagonal"):
        phi = corpus[name]
        for alpha in (np.exp(0.7j), 1.0 + 0.0j, -1.0 + 0.0j, -np.exp(0.05j)):
            m = clark.build_measure(phi, alpha, 256)
            assert abs(clark.total_mass(m) - clark.expected_mass(phi, alpha)) \
                < 1e-8, (name, alpha)
        assert max(embedding.conj_rational(phi, np.exp(0.7j)).max_residual) \
            < 1e-10
        assert blaschke.slice_clark_atoms(phi, np.exp(0.7j), np.exp(0.4j))
    phi = catalog.tridisk_rif(4.0)
    m = polydisk.build_measure_d(phi, np.exp(0.9j), 32)
    assert abs(clark.total_mass(m) - 1.0) < 1e-8
