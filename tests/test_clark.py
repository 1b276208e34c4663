import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rifclark import catalog, clark
from rifclark.errors import MassNotOne, ZeroOverZero

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


@pytest.mark.parametrize("name", ["fav", "squared"])
def test_poisson_exact_at_exceptional_alpha(corpus, name):
    # the lines are split off exactly, so the uniform rule stays spectral
    m = clark.build_measure(corpus[name], -1.0 + 0.0j, 1024)
    rng = np.random.default_rng(5)
    z = 0.7 * np.sqrt(rng.uniform(size=(20, 2))) \
        * np.exp(2j * np.pi * rng.uniform(size=(20, 2)))
    rep = clark.verify_poisson(m, [(a, b) for a, b in z])
    assert rep.max_rel_err < 1e-12


def test_measure_json_round_trip_with_refined_nodes(squared):
    m = clark.build_measure(squared, -np.exp(0.05j), 512)
    assert len(m.weights) > 2 * 512  # spike refinement added nodes
    text = clark.measure_to_json(m)
    back = clark.measure_from_json(text)
    assert clark.measure_to_json(back) == text
    assert clark.total_mass(back) == clark.total_mass(m)


def _drop(*keys):
    def damage(obj):
        for key in keys:
            del obj[key]
        obj["branches"] = []  # the older per-branch layout
    return damage


def _halve_weights(obj):
    # 2n nodes would still reshape to n rows of 4 coordinates
    obj["weights"] = obj["weights"][: len(obj["weights"]) // 2]


@pytest.mark.parametrize("damage", [
    _drop("nodes"), _drop("weights"), _drop("nodes", "weights"),
    _halve_weights,
    lambda obj: obj.update(weights=1.0),
    lambda obj: obj.update(nodes=[node[:1] for node in obj["nodes"]]),
], ids=["no_nodes", "no_weights", "per_branch", "half_weights",
        "scalar_weight", "one_coordinate"])
def test_measure_from_json_rejects_malformed_records(fav_measure_alphai,
                                                     damage):
    import json

    obj = json.loads(clark.measure_to_json(fav_measure_alphai))
    damage(obj)
    with pytest.raises(ValueError):
        clark.measure_from_json(json.dumps(obj))


@pytest.mark.parametrize("alpha", [-np.exp(0.05j), -1.0 + 0.0j],
                         ids=["refined", "lines"])
def test_block_sums_match_pointwise_integrals(squared, monkeypatch, alpha):
    # the matmul forms against the plain integral, one point or moment at
    # a time, with blocks far smaller than the measure and more points
    # than one Poisson pass takes
    m = clark.build_measure(squared, alpha, 512)
    pts = [(0.3 + 0.2j, -0.4j), (0.1, 0.5 - 0.1j), (-0.2j, 0.6),
           (0.45, 0.1 + 0.1j), (-0.5 + 0.3j, -0.2), (0.05, -0.05j)]
    rhs = clark.verify_poisson(m, pts).rhs
    C = clark.herglotz_moments(m, 3)
    monkeypatch.setattr(clark, "_BLOCK_NODES", 300)
    assert np.allclose(clark.verify_poisson(m, pts).rhs, rhs,
                       rtol=1e-13, atol=0.0)
    assert np.allclose(clark.herglotz_moments(m, 3), C, rtol=0.0, atol=1e-14)

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
