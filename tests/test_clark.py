import base64
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rifclark import catalog, clark, embedding, polydisk
from rifclark.errors import MassGapExceeded, MassNotOne, ZeroOverZero

GENERIC = np.exp(0.7j)


def test_mass_identity_small_grids(corpus):
    for name, phi in corpus.items():
        m = clark.build_measure(phi, GENERIC, 1024)
        assert abs(clark.total_mass(m) - clark.expected_mass(phi, GENERIC)) \
            < 1e-8, name


def test_expected_mass_formula(diagonal):
    # phi(0) = 1/2 for the diagonal family member, so at alpha = 1 the
    # mass is (1 - 1/4) / (1/2)^2 = 3
    assert abs(clark.expected_mass(diagonal, 1.0 + 0.0j) - 3.0) < 1e-15
    m = clark.build_measure(diagonal, 1.0 + 0.0j, 1024)
    assert abs(clark.total_mass(m) - 3.0) < 1e-8


def test_exceptional_measure_structure(squared):
    m = clark.build_measure(squared, -1.0 + 0.0j, 512)
    assert len(m.lines) == 2          # vertical lines only, at tau = +-1
    assert all(ln.axis == 1 for ln in m.lines)
    assert abs(clark.total_mass(m) - 1.0) < 1e-12


def test_integrate_constant_equals_mass(fav_measure_alphai):
    got = clark.integrate(fav_measure_alphai, lambda z1, z2: 1.0 + 0.0 * z1)
    assert abs(got - clark.total_mass(fav_measure_alphai)) < 1e-14


def test_integrate_picks_up_line_terms(squared):
    m = clark.build_measure(squared, -1.0 + 0.0j, 512)
    # f(z1, z2) = Re z1 on two lines at +-1 with mass 1/4 each plus two
    # constant branches g == +-1 carrying Re z1 integrated over the circle
    got = clark.integrate(m, lambda z1, z2: np.real(z1))
    assert abs(got - (0.25 - 0.25)) < 1e-12


def test_poisson_identity_interior_points(fav):
    m = clark.build_measure(fav, GENERIC, 2048)
    pts = [(0.3 + 0.2j, -0.4 + 0.1j), (0.0, 0.5j), (-0.6, 0.2 - 0.3j)]
    rep = clark.verify_poisson(m, pts)
    assert rep.max_rel_err < 1e-10


def test_poisson_identity_with_lines(squared):
    m = clark.build_measure(squared, -1.0 + 0.0j, 2048)
    rep = clark.verify_poisson(m, [(0.4 + 0.1j, 0.2 - 0.3j), (0.5, -0.25)])
    assert rep.max_rel_err < 1e-7


def test_poisson_rejects_points_near_alpha(fav):
    # phi(t, t) = -t along the diagonal, so z = (0.999, 0.999) comes
    # within 1e-3 of alpha = -1
    m = clark.build_measure(fav, -1.0 + 0.0j, 512)
    with pytest.raises(ValueError):
        clark.verify_poisson(m, [(0.999, 0.999)], min_alpha_dist=1e-2)


def test_poisson_rejects_boundary_points(fav_measure_alphai):
    with pytest.raises(ValueError):
        clark.verify_poisson(fav_measure_alphai, [(1.0, 0.0)])


def test_weight_at_matches_closed_form(fav):
    z1 = np.exp(0.9j)
    w = clark.weight_at(fav, GENERIC, z1,
                        (2 * GENERIC + (1 - GENERIC) * z1)
                        / (2 * z1 - 1 + GENERIC))
    assert abs(w - 2 * abs(z1 - 1) ** 2 / abs(2 * z1 - 1 + GENERIC) ** 2) \
        < 1e-13


def test_weight_at_vanishes_at_contact_point(fav):
    # at alpha = 1 the branch touches the singularity with 0/2, an honest
    # zero of the weight rather than an indeterminate node
    assert clark.weight_at(fav, 1.0 + 0.0j, 1.0 + 0.0j, 1.0 + 0.0j) == 0.0


def test_weight_at_zero_over_zero(squared):
    # on the constant branch g == 1 of the exceptional value, the node at
    # zeta1 = 1 hits the singularity (1,1): both weight parts vanish
    with pytest.raises(ZeroOverZero):
        clark.weight_at(squared, -1.0 + 0.0j, 1.0 + 0.0j, 1.0 + 0.0j)


def test_monomial_moments_are_kronecker(monomial):
    m = clark.build_measure(monomial, GENERIC, 256)
    C = clark.herglotz_moments(m, 4)
    expect = np.zeros((5, 5), dtype=complex)
    for k in range(5):
        expect[k, k] = np.conj(GENERIC) ** k
    assert np.max(np.abs(C - expect)) < 1e-12


def test_herglotz_reconstruction_fav(fav):
    m = clark.build_measure(fav, 1.0 + 0.0j, 2048)
    H = clark.herglotz_reconstruct(m, 32)
    rng = np.random.default_rng(11)
    z = 0.5 * np.sqrt(rng.uniform(size=(50, 2))) \
        * np.exp(2j * np.pi * rng.uniform(size=(50, 2)))
    err = np.abs(H(z[:, 0], z[:, 1]) - fav(z[:, 0], z[:, 1]))
    assert np.max(err) < 1e-10


def test_herglotz_reconstruction_exceptional(fav):
    # alpha = -1 splits the measure into a line plus a constant branch;
    # the Herglotz sum must still rebuild phi
    m = clark.build_measure(fav, -1.0 + 0.0j, 2048)
    H = clark.herglotz_reconstruct(m, 32)
    z = np.array([0.3 + 0.2j, -0.25, 0.1 - 0.4j])
    w = np.array([-0.2 + 0.1j, 0.35j, 0.45])
    assert np.max(np.abs(H(z, w) - fav(z, w))) < 1e-8


def test_reconstruction_requires_unit_mass(diagonal):
    m = clark.build_measure(diagonal, 1.0 + 0.0j, 512)  # mass 3
    with pytest.raises(MassNotOne):
        clark.herglotz_reconstruct(m, 8)


def test_measure_json_round_trip_byte_identical(fav_measure_alphai):
    text = clark.measure_to_json(fav_measure_alphai)
    again = clark.measure_to_json(clark.measure_from_json(text))
    assert text == again


def test_measure_json_preserves_quadrature(fav_measure_alphai):
    loaded = clark.measure_from_json(
        clark.measure_to_json(fav_measure_alphai))
    assert loaded.grid_n == fav_measure_alphai.grid_n
    assert abs(clark.total_mass(loaded)
               - clark.total_mass(fav_measure_alphai)) < 1e-15
    rep = clark.verify_poisson(loaded, [(0.2 + 0.1j, -0.3j)])
    assert rep.max_rel_err < 1e-10


@given(st.floats(min_value=0.05, max_value=1.95))
@example(t=0.875)
@settings(max_examples=6, deadline=None)
def test_mass_identity_random_alpha(t):
    assume(abs(t - 1.0) > 0.1)  # keep clear of the exceptional value
    phi = catalog.simple_singular_rif()
    alpha = np.exp(1j * np.pi * t)
    m = clark.build_measure(phi, alpha, 512)
    assert abs(clark.total_mass(m) - 1.0) < 1e-6


@pytest.mark.parametrize("name, alpha", [("fav", 1.0 + 0.0j),
                                         ("squared", -1.0 + 0.0j)])
def test_measure_json_reserialization_byte_identical(corpus, name, alpha):
    # both measures carry -0.0 components, which must survive the trip
    text = clark.measure_to_json(clark.build_measure(corpus[name], alpha, 512))
    assert clark.measure_to_json(clark.measure_from_json(text)) == text


def _poisson_points(count=20, radius=0.7, seed=5):
    rng = np.random.default_rng(seed)
    z = radius * np.sqrt(rng.uniform(size=(count, 2))) \
        * np.exp(2j * np.pi * rng.uniform(size=(count, 2)))
    return [(a, b) for a, b in z]


@pytest.mark.parametrize("name", ["fav", "squared", "product"])
def test_poisson_exact_at_exceptional_alpha(corpus, name):
    # the lines (product has none) are split off exactly, so the uniform
    # rule stays spectral
    m = clark.build_measure(corpus[name], -1.0 + 0.0j, 1024)
    rep = clark.verify_poisson(m, _poisson_points())
    assert rep.max_rel_err < 1e-12


@pytest.mark.parametrize("name", ["fav", "squared"])
@pytest.mark.parametrize("dt", [-0.19, -0.08, -0.045, -0.01,
                                0.01, 0.045, 0.08, 0.19])
def test_near_exceptional_alpha_is_resolved(corpus, name, dt):
    # mass piles up along the emerging lines of alpha = -1; the clustered
    # zeta1 nodes resolve it at N = 512 where the uniform grid does not
    phi = corpus[name]
    alpha = np.exp(1j * np.pi * (1.0 + dt))
    m = clark.build_measure(phi, alpha, 512)
    assert abs(clark.total_mass(m) - clark.expected_mass(phi, alpha)) < 1e-10
    assert clark.verify_poisson(m, _poisson_points()).max_rel_err < 1e-10


def test_measure_json_round_trip_with_refined_nodes(squared):
    m = clark.build_measure(squared, -np.exp(0.05j), 512)
    assert len(m.weights) > 2 * 512  # the Blaschke rule clustered nodes
    text = clark.measure_to_json(m)
    back = clark.measure_from_json(text)
    assert clark.measure_to_json(back) == text
    assert clark.total_mass(back) == clark.total_mass(m)


def _b64(values, dtype):
    # written apart from clark's encoder, so these tests pin the format
    raw = np.ascontiguousarray(values, dtype=dtype).tobytes()
    return base64.b64encode(raw).decode("ascii")


def test_measure_json_stores_raw_little_endian_arrays(fav_measure_alphai):
    m = fav_measure_alphai
    obj = json.loads(clark.measure_to_json(m))
    assert obj["nodes"] == _b64(m.nodes, "<c16")
    assert obj["weights"] == _b64(m.weights, "<f8")
    nodes = np.frombuffer(base64.b64decode(obj["nodes"]), "<c16")
    assert np.array_equal(nodes.reshape(-1, 2), m.nodes)


def test_measure_json_keeps_every_bit(fav):
    # -0.0, NaN with sign and payload, infinities and a subnormal
    nan = np.array([0x7FF8000000000001, 0xFFF8000000000000],
                   dtype=np.uint64).view(np.float64)
    odd = np.array([-0.0, nan[0], nan[1], np.inf, -np.inf, 5e-324, -2.5e-310,
                    1.0])
    parts = np.stack([np.roll(odd, k) for k in range(4)], axis=-1)
    m = clark.ClarkMeasure(phi=fav, alpha=1.0j, grid_n=8,
                           nodes=parts.view(complex).reshape(8, 2),
                           weights=odd[::-1].copy(), lines=[])
    text = clark.measure_to_json(m)
    back = clark.measure_from_json(text)
    assert np.array_equal(back.nodes.view(np.uint64), m.nodes.view(np.uint64))
    assert np.array_equal(back.weights.view(np.uint64),
                          m.weights.view(np.uint64))
    assert clark.measure_to_json(back) == text


def test_measure_json_size_is_binary(fav_measure_alphai):
    # 40 bytes per 2-variable node (two complex128 and one float64) grow
    # by 4/3 in base64; text arrays would take about twice that
    n = len(fav_measure_alphai.weights)
    assert len(clark.measure_to_json(fav_measure_alphai)) < 4 / 3 * 40 * n + 2048


def _drop(*keys):
    def damage(obj, m):
        for key in keys:
            del obj[key]
        obj["branches"] = []  # the older per-branch layout
    return damage


def _half_weights(obj, m):
    # n/2 whole weights: the 2n complex values would still make n/2 rows
    # of 4 coordinates, not of 2
    obj["weights"] = _b64(m.weights[: len(m.weights) // 2], "<f8")


def _one_coordinate(obj, m):
    # n complex values: one coordinate per node of a 2-variable record
    obj["nodes"] = _b64(m.nodes[:, 0], "<c16")


def _text_arrays(obj, m):
    # the flat layout written before the binary encoding
    obj["nodes"] = np.stack([m.nodes.real, m.nodes.imag], axis=-1).tolist()
    obj["weights"] = m.weights.tolist()


def _partial_value(obj, m):
    obj["weights"] = base64.b64encode(m.weights.tobytes()[:-3]).decode()


@pytest.mark.parametrize("damage, match", [
    (_drop("nodes"), "no nodes and weights"),
    (_drop("weights"), "no nodes and weights"),
    (_drop("nodes", "weights"), "no nodes and weights"),
    (_half_weights, "one node of 2 coordinates per weight"),
    (lambda obj, m: obj.update(weights=1.0), "weights must be base64"),
    (_one_coordinate, "one node of 2 coordinates per weight"),
    (_text_arrays, "must be base64 of raw"),
    (lambda obj, m: obj.update(nodes="abcde"), "Invalid base64-encoded"),
    (_partial_value, "weights is not a whole number of <f8 values"),
], ids=["no_nodes", "no_weights", "per_branch", "half_weights",
        "scalar_weight", "one_coordinate", "text_arrays", "invalid_base64",
        "partial_value"])
def test_measure_from_json_rejects_malformed_records(fav_measure_alphai,
                                                     damage, match):
    obj = json.loads(clark.measure_to_json(fav_measure_alphai))
    damage(obj, fav_measure_alphai)
    with pytest.raises(ValueError, match=match):
        clark.measure_from_json(json.dumps(obj))


@pytest.mark.parametrize("name", ["fav", "squared"])
@pytest.mark.parametrize("dt", [-1e-5, 1e-5])
def test_build_next_to_singularity_is_accurate(corpus, name, dt):
    # next to the singularity (1, 1) both weight parts of many nodes fall
    # below the 0/0 tolerances; each slice atom still carries its ratio
    phi = corpus[name]
    alpha = np.exp(1j * np.pi * (1.0 + dt))
    m = clark.build_measure(phi, alpha, 512)
    assert abs(clark.total_mass(m) / clark.expected_mass(phi, alpha) - 1.0) \
        <= 1e-6
    assert clark.verify_poisson(m, _poisson_points()).max_rel_err <= 1e-6


@pytest.mark.parametrize("N", [512, 4096])
@pytest.mark.parametrize("dt", [-1e-8, 1e-8])
def test_mass_gap_raises_instead_of_wrong_mass(product, dt, N):
    # next to the singularity (1, 1) a build either raises or is right to
    # bounds 1e4 times tighter than the guard; above t = 1 the slice at
    # zeta1 = 1 still loses mass and raises
    alpha = np.exp(1j * np.pi * (1.0 + dt))
    if dt > 0:
        with pytest.raises(MassGapExceeded):
            clark.build_measure(product, alpha, N)
        return
    try:
        m = clark.build_measure(product, alpha, N)
    except MassGapExceeded:
        return
    assert abs(clark.total_mass(m) / clark.expected_mass(product, alpha)
               - 1.0) <= 1e-10
    assert clark.verify_poisson(m, _poisson_points()).max_rel_err <= 1e-10


def test_product_builds_where_its_branches_meet(product):
    # at alpha = -1 the two roots of the slice at zeta1 = 1 coincide
    m = clark.build_measure(product, -1.0 + 0.0j, 256)
    assert abs(clark.total_mass(m) - 1.0) <= 1e-12


@pytest.mark.parametrize("name", ["fav", "squared"])
@pytest.mark.parametrize("N", [256, 512])
def test_zeta1_nodes_avoid_the_lines(corpus, name, N):
    m = clark.build_measure(corpus[name], -1.0 + 0.0j, N)
    assert m.lines
    for line in m.lines:
        gap = np.abs(np.angle(m.nodes[:, 0] / line.tau))
        assert np.min(gap) >= 0.99 * np.pi / N


def test_mass_gap_guard_passes_accurate_builds(product):
    alpha = np.exp(1j * np.pi * (1.0 + 1e-5))
    m = clark.build_measure(product, alpha, 512)
    gap = abs(clark.total_mass(m) / clark.expected_mass(product, alpha) - 1.0)
    assert gap < 1e-12


@pytest.mark.parametrize("alpha", [-np.exp(0.05j), -1.0 + 0.0j],
                         ids=["clustered", "lines"])
def test_block_sums_match_pointwise_integrals(squared, monkeypatch, alpha):
    # the matmul forms against the plain integral, one point or moment at
    # a time, with blocks far smaller than the measure and more points
    # than one Poisson pass takes
    m = clark.build_measure(squared, alpha, 512)
    pts = [(0.3 + 0.2j, -0.4j), (0.1, 0.5 - 0.1j), (-0.2j, 0.6),
           (0.45, 0.1 + 0.1j), (-0.5 + 0.3j, -0.2), (0.05, -0.05j)]
    rhs = clark.verify_poisson(m, pts).rhs
    C = clark.herglotz_moments(m, 3)
    gram = embedding.gram_isometry_check(squared, alpha, pts, m).gram_embedded
    M = embedding._torus_moments(m, 4)
    mass = clark.total_mass(m)
    monkeypatch.setattr(clark, "_BLOCK_NODES", 300)
    assert np.allclose(clark.verify_poisson(m, pts).rhs, rhs,
                       rtol=1e-13, atol=0.0)
    assert np.allclose(clark.herglotz_moments(m, 3), C, rtol=0.0, atol=1e-14)
    assert np.allclose(
        embedding.gram_isometry_check(squared, alpha, pts, m).gram_embedded,
        gram, rtol=1e-13, atol=0.0)
    assert np.allclose(embedding._torus_moments(m, 4), M, rtol=0.0,
                       atol=1e-14)
    assert clark.total_mass(m) == mass

    def poisson(z, w):
        return (1 - abs(w) ** 2) / np.abs(z - w) ** 2

    for (w1, w2), r in zip(pts, rhs):
        ref = clark.integrate(m, lambda a, b: poisson(a, w1) * poisson(b, w2))
        assert abs(ref - r) < 1e-13 * abs(r)
    for j in range(4):
        for k in range(4):
            ref = clark.integrate(
                m, lambda a, b: np.conj(a) ** j * np.conj(b) ** k)
            assert abs(ref - C[j, k]) < 1e-14

    # M takes zeta^-s as conj(zeta)^s, as it is on the torus; a ** -s is
    # 1 / a ** s, which differs from it by about 2 s (|a| - 1) at a node
    # off the torus (clustered zeta2 roots are, by up to 5e-13)
    def torus_power(a, s):
        return a ** s if s >= 0 else np.conj(a) ** -s

    off = 2 * np.sum(m.weights[:, None] * np.abs(np.abs(m.nodes) - 1.0),
                     axis=0)
    for s in range(-4, 5):
        for t in range(-4, 5):
            got = M[s + 4, t + 4]
            ref = clark.integrate(
                m, lambda a, b: torus_power(a, s) * torus_power(b, t))
            assert abs(ref - got) <= 1e-14
            ref = clark.integrate(m, lambda a, b: a ** s * b ** t)
            assert abs(ref - got) <= 1e-14 + abs(s) * off[0] + abs(t) * off[1]


@pytest.mark.parametrize("alpha", [GENERIC, -1.0 + 0.0j],
                         ids=["generic", "lines"])
def test_integrators_stay_cache_sized(squared, alpha):
    # every query works a block of nodes at a time, so its temporaries stay
    # a few MB on the largest measures the package builds; tables over the
    # whole measure took 40-110 MB here
    m = clark.build_measure(squared, alpha, 65536)
    rng = np.random.default_rng(7)
    z = 0.6 * np.sqrt(rng.uniform(size=(20, 2))) \
        * np.exp(2j * np.pi * rng.uniform(size=(20, 2)))
    pts = list(zip(z[:, 0], z[:, 1]))
    calls = {
        "verify_poisson": lambda: clark.verify_poisson(m, pts),
        "herglotz_moments": lambda: clark.herglotz_moments(m, 32),
        "gram_isometry_check": lambda: embedding.gram_isometry_check(
            squared, alpha, pts[:10], m),
        "density_distance": lambda: embedding.density_distance(m, 8),
        "total_mass": lambda: clark.total_mass(m),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6, (name, peak)


@pytest.mark.parametrize("alpha", [np.exp(0.3j * np.pi), -1.0 + 0.0j])
@pytest.mark.parametrize("name", ["fav", "squared", "product", "diagonal"])
def test_moments_match_exact_taylor_oracle(corpus, name, alpha):
    # Taylor coefficients of (alpha p + q) / (alpha p - q) by power-series
    # division, and mixed moments that vanish; the build keeps its digits
    m = clark.build_measure(corpus[name], alpha, 4096)
    assert clark.moment_residual(m, 12) <= 1e-13


def test_moment_residual_sees_a_perturbed_measure(fav):
    alpha = np.exp(0.3j * np.pi)
    m = clark.build_measure(fav, alpha, 1024)
    exact = clark.exact_moments(fav, alpha, 12)
    assert exact[0, 0] == pytest.approx(clark.expected_mass(fav, alpha),
                                        rel=1e-15)
    rotated = clark.ClarkMeasure(phi=fav, alpha=alpha, grid_n=1024,
                                 nodes=m.nodes * [np.exp(1e-6j), 1.0],
                                 weights=m.weights, lines=[])
    assert clark.moment_residual(rotated, 12) > 1e-7


def test_moment_residual_sees_mixed_moments(fav):
    # a signed density 2 eps Re(conj(zeta1) zeta2) on a 32 x 32 torus grid
    # keeps every moment of conj(zeta1)^j conj(zeta2)^k, j, k <= 12, and
    # gives the mixed moment of zeta1 conj(zeta2) the value eps
    alpha, eps = np.exp(0.3j * np.pi), 1e-9
    m = clark.build_measure(fav, alpha, 1024)
    g = np.exp(2j * np.pi * np.arange(32) / 32)
    z1, z2 = (a.ravel() for a in np.meshgrid(g, g, indexing="ij"))
    ghost = 2.0 * eps * np.real(np.conj(z1) * z2) / 32 ** 2
    mixed = clark.ClarkMeasure(
        phi=fav, alpha=alpha, grid_n=1024,
        nodes=np.vstack([m.nodes, np.stack([z1, z2], axis=1)]),
        weights=np.append(m.weights, ghost), lines=[])
    assert clark.moment_residual(m, 12) <= 1e-13
    assert abs(clark.moment_residual(mixed, 12) - eps) <= 1e-13


def _rim_points(n, seed):
    # |z1| <= 0.7 and |z2| in [0.99, 0.995], where the N = 256 grid on a
    # line aliases visibly (|z2|^256 is up to 0.28)
    rng = np.random.default_rng(seed)
    z1 = 0.7 * np.sqrt(rng.uniform(size=n)) \
        * np.exp(2j * np.pi * rng.uniform(size=n))
    z2 = rng.uniform(0.99, 0.995, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return list(zip(z1, z2))


@pytest.mark.parametrize("name", ["fav", "squared"])
def test_line_closed_forms_match_the_grid(corpus, name):
    # each closed-form line term is the uniform grid's value, aliasing
    # included, which integrate still gets by enumerating the grid
    phi = corpus[name]
    m = clark.build_measure(phi, -1.0 + 0.0j, 256)
    assert m.lines
    pts = _rim_points(6, seed=11)

    def poisson(z, w):
        return (1 - abs(w) ** 2) / np.abs(z - w) ** 2

    rhs = clark.verify_poisson(m, pts).rhs
    for (w1, w2), r in zip(pts, rhs):
        ref = clark.integrate(m, lambda a, b: poisson(a, w1) * poisson(b, w2))
        assert abs(ref - r) <= 1e-13 * abs(ref)

    gram = embedding.gram_isometry_check(phi, -1.0, pts, m).gram_embedded
    pre = 1.0 + np.conj([phi(w1, w2) for w1, w2 in pts])

    def kernel(i, a, b):
        w1, w2 = pts[i]
        return pre[i] / ((1 - np.conj(w1) * a) * (1 - np.conj(w2) * b))

    ref = np.array([[clark.integrate(m, lambda a, b: kernel(i, a, b)
                                     * np.conj(kernel(j, a, b)))
                     for j in range(len(pts))] for i in range(len(pts))])
    assert np.max(np.abs(gram - ref)) <= 1e-13 * np.max(np.abs(ref))

    C = clark.herglotz_moments(m, 260)
    for j in (0, 1, 3):
        for k in (0, 1, 255, 256, 257):
            ref = clark.integrate(
                m, lambda a, b: np.conj(a) ** j * np.conj(b) ** k)
            assert abs(ref - C[j, k]) <= 1e-13, (j, k)


def test_closed_form_integrators_enumerate_no_line_nodes(corpus, monkeypatch):
    # only integrate walks a line's grid; the Poisson, moment, Gram and
    # density sums take each line in closed form
    def refuse(*args, **kwargs):
        raise AssertionError("line nodes enumerated")

    monkeypatch.setattr(clark, "_line_blocks", refuse)
    pts = [(0.3 + 0.2j, -0.4j), (0.1, 0.5 - 0.1j), (-0.2j, 0.6)]
    for name in ("fav", "squared"):
        phi = corpus[name]
        m = clark.build_measure(phi, -1.0 + 0.0j, 512)
        assert m.lines
        assert clark.verify_poisson(m, pts).max_rel_err < 1e-12
        assert abs(clark.herglotz_moments(m, 8)[0, 0] - 1.0) < 1e-12
        assert clark.moment_residual(m, 8) < 1e-13
        assert embedding.gram_isometry_check(phi, -1.0, pts, m).max_abs_error \
            < 1e-10
        assert embedding.density_distance(m, 4).verdict \
            == "consistent_with_nonunitary"
        with pytest.raises(AssertionError, match="line nodes"):
            clark.integrate(m, lambda a, b: a + b)


@pytest.mark.parametrize("name", ["fav", "squared"])
def test_line_measures_meet_exact_oracles_at_full_size(corpus, name):
    m = clark.build_measure(corpus[name], -1.0 + 0.0j, 65536)
    assert clark.moment_residual(m, 12) <= 1e-13
    rng = np.random.default_rng(5)
    z = 0.7 * np.exp(2j * np.pi * rng.uniform(size=(20, 2)))
    rep = clark.verify_poisson(m, list(zip(z[:, 0], z[:, 1])))
    assert rep.max_rel_err <= 1e-12


def test_verify_poisson_refuses_three_variables():
    m = polydisk.build_measure_d(catalog.tridisk_rif(4.0), np.exp(0.9j), 16)
    with pytest.raises(ValueError, match="polydisk.verify_poisson_d"):
        clark.verify_poisson(m, [(0.1, 0.2, 0.3)])
    with pytest.raises(ValueError, match="polydisk.verify_poisson_d"):
        clark.verify_poisson(m, [(0.1, 0.2)])


def test_verify_poisson_refuses_no_points(fav_measure_alphai):
    with pytest.raises(ValueError, match="at least one point"):
        clark.verify_poisson(fav_measure_alphai, [])


def test_moments_refuse_a_negative_degree(fav_measure_alphai):
    with pytest.raises(ValueError, match="non-negative"):
        clark.herglotz_moments(fav_measure_alphai, -1)
