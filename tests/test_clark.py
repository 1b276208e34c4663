import base64
import dataclasses
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import slice_atoms
from rifclark import catalog, clark, contact, embedding, levelset, polydisk
from rifclark.errors import MassGapExceeded, MassNotOne, MeasureMismatch
from rifclark.poly import slice_coeffs
from rifclark.util import unit_circle_points, unit_roots

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
    # phi(t, t) = -t along the diagonal, so z = (t, t), t = 1 - 1e-7,
    # comes within 1e-7 of alpha = -1, inside MIN_ALPHA_DIST
    m = clark.build_measure(fav, -1.0 + 0.0j, 512)
    t = 1.0 - 1e-7
    with pytest.raises(ValueError):
        clark.verify_poisson(m, [(t, t)])


def test_poisson_rejects_boundary_points(fav_measure_alphai):
    with pytest.raises(ValueError):
        clark.verify_poisson(fav_measure_alphai, [(1.0, 0.0)])


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


def test_reconstruction_refuses_a_nan_mass(fav_measure_alphai):
    # a measure read from JSON can carry a NaN weight, and a NaN mass
    # compares False with every bound, so only a test it fails refuses it
    m = fav_measure_alphai
    m = dataclasses.replace(m, weights=m.weights.copy())
    m.weights[0, 0] = np.nan
    with pytest.raises(MassNotOne):
        clark.herglotz_reconstruct(m, 8)


_COORDS = st.one_of(st.complex_numbers(max_magnitude=0.9),
                    st.builds(complex, st.floats(), st.floats()))


@given(st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=3))
@example([(complex(np.nan, 0.0), 0.1)])
@example([(0.2, complex(0.0, np.inf))])
@example([(0.3, 1.0)])
@settings(max_examples=60, deadline=None)
def test_point_checks_refuse_or_report_finitely(fav_measure_alphai, pts):
    # NaN, infinite and boundary coordinates are refused by the one bidisk
    # point check of verify_poisson and gram_isometry_check; every point
    # they accept gives a finite report
    m = fav_measure_alphai
    for report in (lambda: clark.verify_poisson(m, pts).rel_err,
                   lambda: embedding.gram_isometry_check(
                       m.phi, m.alpha, pts, m).max_abs_error):
        try:
            err = report()
        except ValueError:
            continue
        assert np.all(np.isfinite(err))
        assert all(abs(z) < 1.0 for pt in pts for z in pt)


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


@pytest.mark.parametrize("alpha", [
    1.0 + 0.0j, -1.0 + 0.0j, GENERIC, np.exp(1.001j * np.pi),
    np.exp(0.999j * np.pi)], ids=["one", "minus_one", "generic", "above",
                                  "below"])
@pytest.mark.parametrize("name", ["fav", "squared", "product"])
def test_measure_json_reserialization_byte_identical(corpus, name, alpha):
    # a loaded measure is the build bit for bit, lines included: -0.0
    # components at +-1, lines at -1, clustered nodes at t = 1 +- 1e-3
    m = clark.build_measure(corpus[name], alpha, 512)
    text = clark.measure_to_json(m)
    back = clark.measure_from_json(text)
    assert _same_build(back, m)
    assert clark.measure_to_json(back) == text


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


def test_lines_and_poles_share_one_node_rule():
    # at its alpha0 this draw has a line and h(., 0) keeps roots at |z| =
    # 1.023 and 1.043, which the uniform grid leaves unresolved (Poisson
    # error 5e-3 with the shifted uniform grid): the nodes are the
    # preimages of B(tau) e^{2 pi i (k + 1/2) / N} under B of those poles
    phi = catalog.random_rif(3, 1, 32, singular=True)
    alpha0 = contact.nontangential_value(phi, catalog.planted_zero(32))
    zeta1, quad, lines = clark._zeta1_rule(phi, alpha0, 1024)
    assert len(lines) == 1 and len(zeta1) == 3 * 1024
    assert np.all(np.abs(np.abs(zeta1) - 1.0) <= 2 * np.finfo(float).eps)
    assert np.min(np.abs(zeta1 - lines[0].tau)) > 1e-4
    m = clark.build_measure(phi, alpha0, 1024)
    assert clark.verify_poisson(m, _poisson_points()).max_rel_err <= 1e-10
    assert clark.moment_residual(m, 8) <= 1e-10


@pytest.mark.parametrize("N", [1024, 16384])
@pytest.mark.parametrize("delta", [1e-3, -1e-3])
def test_contact_four_line_far_from_alpha0_floor(delta, N):
    # at alpha = e^{i pi (1 + delta)} h's slice at the line seed reads
    # ~delta^4 (p vanishes to order 4 at the torus), under LINE_TOL up to
    # |delta| ~ 9e-3, so a line is kept this far from alpha0 = -1, and the
    # residuals stall and grow with N: Poisson 9.8e-9 / 6.8e-9 at
    # N = 1024 and 3.2e-8 / 1.6e-8 at 16384, mass gap 3.9e-10 and 6.2e-9.
    # A floor for ROADMAP item 6 to tighten, not a target
    phi = catalog.contact_four_rif()
    alpha = np.exp(1j * np.pi * (1 + delta))
    m = clark.build_measure(phi, alpha, N)
    assert clark.verify_poisson(m, _poisson_points()).max_rel_err <= 1e-7
    assert abs(clark.total_mass(m) / clark.expected_mass(phi, alpha)
               - 1.0) <= 1e-8


def _blaschke_oracle(phi, alpha, N):
    """The zeta1 rule's nodes, its weights, and the reference weights
    1 / (N |B'|) at its nodes, with |B'| = 1 + sum (1 - |a|^2) / |z - a|^2
    on the circle; the zeros a = 1 / conj(z*) of B are taken from numpy's
    roots of h(., 0), z* outside the circle, unresolved by N nodes and
    off every line."""
    z, quad, lines = clark._zeta1_rule(phi, alpha, N)
    poles = [r for r in np.roots(phi.level_coeffs(alpha)[::-1, 0])
             if abs(r) > 1.0 and N * np.log(abs(r)) < clark._POLE_RESOLVE
             and all(abs(r - ln.tau) >= levelset.UNIMODULAR_TOL
                     for ln in lines)]
    a = 1.0 / np.conj(np.array(poles))
    dB = 1.0 + np.sum((1.0 - np.abs(a) ** 2) / np.abs(z[:, None] - a) ** 2,
                      axis=1)
    return z, quad, a, 1.0 / (N * dB)


@pytest.mark.parametrize("name, ts, bound", [
    (name, ts, bound) for name in ("fav", "squared") for ts, bound in (
        ((1.19, 0.81), 5e-14), ((1.045, 0.955), 1.5e-12),
        ((1.01, 0.99), 3e-11))] + [("random", None, 1.5e-13)])
def test_rule_weights_are_the_blaschke_derivative(corpus, name, ts, bound):
    # the rule's weights, the kernel's |p| / |d/dz h|, against 1 / (N |B'|)
    # from B's zeros: equal to a bound that grows as 1 / (|z*| - 1), the
    # conditioning of both (largest gap at N = 1024: 1.8e-14 at
    # |t - 1| = 0.19, 4.0e-13 at 0.045, 8.9e-12 at 0.01, 3.0e-14 for the
    # random draw at its alpha0, which has a line and two poles)
    N = 1024
    if name == "random":
        phi = catalog.random_rif(3, 1, 32, singular=True)
        alphas = [contact.nontangential_value(phi, catalog.planted_zero(32))]
    else:
        phi = corpus[name]
        alphas = [np.exp(1j * np.pi * t) for t in ts]
    for alpha in alphas:
        z, quad, a, ref = _blaschke_oracle(phi, levelset._unimodular_alpha(
            alpha), N)
        assert len(a) and len(z) == (len(a) + 1) * N
        assert np.max(np.abs(quad - ref) / ref) <= bound
        # root-major: column i holds the len(a) + 1 preimages of one w_i,
        # and the w_i are N equally spaced points of the circle
        B = (z * np.prod((z[:, None] - a) / (1.0 - np.conj(a) * z[:, None]),
                         axis=1)).reshape(len(a) + 1, N)
        assert np.max(np.abs(B - B[0])) <= 10 * bound
        k = np.angle(B[0] / B[0, 0]) * N / (2 * np.pi)
        assert np.max(np.abs(k - np.round(k))) <= 1e-8
        assert len(np.unique(np.round(k).astype(int) % N)) == N


@pytest.mark.parametrize("t", [1.01, 0.99])
def test_squared_rule_near_minus_one_keeps_its_digits(squared, t):
    # with the rule's weights from the slice kernel, squared at
    # |t - 1| = 0.01 reads mass gaps of 6.0e-14 and 7.9e-14 and Poisson
    # errors of 2.0e-13 and 3.2e-13 at N = 1024; the bounds sit below the
    # 7.2e-13 and 1.5e-12 to 1.6e-12 of the rule weighted by the |B'| sum
    alpha = np.exp(1j * np.pi * t)
    m = clark.build_measure(squared, alpha, 1024)
    assert abs(clark.total_mass(m) / clark.expected_mass(squared, alpha)
               - 1.0) <= 2e-13
    assert clark.verify_poisson(m, _poisson_points()).max_rel_err <= 6e-13


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("N", [4096, 16384, 3 * levelset.SLICE_BLOCK + 5])
@pytest.mark.parametrize("alpha", [np.exp(0.7j), np.exp(-1.9j)])
@pytest.mark.parametrize("name", ["fav", "squared", "product", "diagonal"])
def test_uniform_base_is_the_shared_read_only_grid(corpus, name, alpha, N):
    # the uniform rule's base is a view of the one table of N-th roots of
    # unity, bit for bit the trig grid, and no caller can write into it
    # (below N = 4096 some of these cases cluster their nodes instead);
    # the last N builds in several blocks, the last one short
    phi = corpus[name]
    m = clark.build_measure(phi, alpha, N)
    grid = unit_circle_points(2 * np.pi * np.arange(N) / N)
    assert np.array_equal(_bits(m.base[:, 0]), _bits(grid))
    assert not m.base.flags.writeable
    with pytest.raises(ValueError):
        m.base[0, 0] = 1.0
    # atoms and weights are the slice kernel's over that grid
    roots, num, den, _ = slice_atoms(phi, m.alpha, grid[:, None])
    weights = num / den * np.full(N, 1.0 / N)
    empty = np.isnan(roots)
    roots[empty], weights[empty] = 1.0, 0.0
    assert np.array_equal(_bits(m.atoms), _bits(roots))
    assert np.array_equal(_bits(m.weights), _bits(weights))
    # a loaded measure is a build: its base is that shared table too
    back = clark.measure_from_json(clark.measure_to_json(m))
    assert np.shares_memory(back.base, m.base)
    assert not back.base.flags.writeable
    assert np.array_equal(_bits(back.base), _bits(m.base))


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
    assert len(m.base) > 2 * 512  # the Blaschke rule clustered nodes
    text = clark.measure_to_json(m)
    back = clark.measure_from_json(text)
    assert clark.measure_to_json(back) == text
    assert clark.total_mass(back) == clark.total_mass(m)


def _same_build(got, want):
    """Whether two measures are one build: bit for bit, lines included."""
    return (got.phi.degrees == want.phi.degrees and got.alpha == want.alpha
            and got.grid_n == want.grid_n and got.lines == want.lines
            and all(np.array_equal(_bits(getattr(got, key)),
                                   _bits(getattr(want, key)))
                    for key in ("base", "atoms", "weights")))


@pytest.mark.parametrize("alpha", [GENERIC, -1.0,
                                   np.exp(1j * np.pi * 1.001)],
                         ids=["generic", "minus_one", "above"])
def test_loaded_tridisk_measure_is_the_build_bit_for_bit(alpha):
    m = polydisk.build_measure_d(catalog.tridisk_rif(3.6), alpha, 32)
    text = clark.measure_to_json(m)
    back = clark.measure_from_json(text)
    assert _same_build(back, m)
    assert clark.measure_to_json(back) == text


@pytest.mark.parametrize("N", [1, 3, 1000])
def test_measure_file_reads_back_at_any_grid(fav, N):
    m = clark.build_measure(fav, GENERIC, N)
    assert _same_build(clark.measure_from_json(clark.measure_to_json(m)), m)


@given(st.floats(min_value=0.0, max_value=2.0 * np.pi),
       st.floats(min_value=-1e-10, max_value=1e-10))
@example(theta=3.251953125, dr=-4.12765239100353e-11)  # one division: no
@settings(max_examples=200, deadline=None)
def test_projected_alpha_projects_to_itself(theta, dr):
    # a file stores alpha projected and the rebuild projects it again:
    # the second projection must keep every bit
    a = levelset._unimodular_alpha((1.0 + dr) * np.exp(1j * theta))
    assert np.array_equal(_bits(np.array([levelset._unimodular_alpha(a)])),
                          _bits(np.array([a])))


@given(st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=20, deadline=None)
def test_measure_file_reads_back_bit_for_bit(t):
    try:
        m = clark.build_measure(catalog.simple_singular_rif(),
                                np.exp(1j * np.pi * t), 64)
    except MassGapExceeded:  # no file to write: the guard's window next
        assume(False)        # to t = 1 (|t - 1| about 1e-6 to 1e-8 here)
    assert _same_build(clark.measure_from_json(clark.measure_to_json(m)), m)


def test_measure_file_is_the_recipe(fav_measure_alphai):
    obj = json.loads(clark.measure_to_json(fav_measure_alphai))
    assert list(obj) == ["type", "alpha", "grid_n", "rif", "sha256", "mass",
                         "lines"]
    m = fav_measure_alphai
    raw = m.base.tobytes() + m.atoms.tobytes() + m.weights.tobytes()
    assert obj["sha256"] == hashlib.sha256(raw).hexdigest()


def test_a_measure_file_in_17_digit_text_still_reads():
    # written by the earlier encoder, which printed every float as %.17g
    # (an integral double as an integer): the same doubles as today's text
    path = Path(__file__).parent / "data" / "fav_measure_17g.json"
    text = path.read_text()
    m = clark.measure_from_json(text)  # MeasureMismatch on another digest
    assert m.alpha == complex(0.58778525229247314, 0.80901699437494745)
    again = clark.measure_to_json(m)
    assert again != text.strip() and json.loads(again) == json.loads(text)


def test_a_changed_digest_names_both(fav_measure_alphai):
    obj = json.loads(clark.measure_to_json(fav_measure_alphai))
    good, obj["sha256"] = obj["sha256"], "0" * 64
    with pytest.raises(MeasureMismatch) as info:
        clark.measure_from_json(json.dumps(obj))
    assert isinstance(info.value, ValueError)
    assert good in str(info.value) and "0" * 64 in str(info.value)


def _rotated(obj, m):
    a = complex(*obj["alpha"]) * np.exp(1e-12j)
    obj["alpha"] = [a.real, a.imag]


def _den_constant(obj, m):
    obj["rif"]["den"]["coeffs"][0][0] = 2.5  # still stable: 2.5 - z1 - z2


@pytest.mark.parametrize("tamper", [
    lambda obj, m: obj.update(grid_n=obj["grid_n"] // 2),
    _rotated,
    _den_constant,
    lambda obj, m: obj["rif"].update(degrees=[2, 1]),
], ids=["grid_n", "alpha", "den", "degrees"])
def test_a_changed_recipe_fails_the_digest(fav_measure_alphai, tamper):
    # the digest binds the recipe: any header that builds another measure,
    # however near, is refused and both digests are named
    obj = json.loads(clark.measure_to_json(fav_measure_alphai))
    tamper(obj, fav_measure_alphai)
    with pytest.raises(MeasureMismatch) as info:
        clark.measure_from_json(json.dumps(obj))
    digests = re.findall(r"\b[0-9a-f]{64}\b", str(info.value))
    assert len(set(digests)) == 2 and obj["sha256"] in digests


@pytest.mark.parametrize("layout", [
    lambda a: a.astype(a.dtype.newbyteorder(">")),
    np.asfortranarray,
    lambda a: np.repeat(a, 2, axis=0)[::2],
], ids=["big_endian", "fortran", "strided"])
def test_digest_matches_c_ordered_native_copy(squared, layout):
    m = clark.build_measure(squared, GENERIC, 64)
    assert m.atoms.shape[0] == 2  # two rows: Fortran order is another layout
    other = dataclasses.replace(m, **{key: layout(getattr(m, key))
                                      for key in ("base", "atoms",
                                                  "weights")})
    assert clark._digest(other) == clark._digest(m)


@pytest.mark.parametrize("damage", [
    lambda obj, m: obj.pop("mass"),
    lambda obj, m: obj.pop("lines"),
    lambda obj, m: obj.update(mass="ten"),
    lambda obj, m: obj.update(lines=None),
], ids=["no_mass", "no_lines", "mass_text", "lines_null"])
def test_measure_from_json_reads_no_text_field(squared, damage):
    # mass and lines are text for people: the rebuild brings its own
    m = clark.build_measure(squared, -1.0, 64)
    assert m.lines
    obj = json.loads(clark.measure_to_json(m))
    damage(obj, m)
    assert _same_build(clark.measure_from_json(json.dumps(obj)), m)


@pytest.mark.parametrize("key, value, match", [
    ("weights", np.nan, "weights must be finite and >= 0"),
    ("weights", -5.0, "weights must be finite and >= 0"),
    ("weights", np.inf, "weights must be finite and >= 0"),
    ("atoms", np.nan, "base nodes and atoms must be finite"),
    ("base", complex(0.0, np.inf), "base nodes and atoms must be finite"),
    ("weights", -np.inf, "weights must be finite and >= 0"),
    ("atoms", complex(np.inf, 0.0), "base nodes and atoms must be finite"),
    ("base", complex(np.nan, 0.0), "base nodes and atoms must be finite"),
], ids=["weight_nan", "weight_negative", "weight_inf", "atom_nan",
        "base_inf", "weight_neg_inf", "atom_inf", "base_nan"])
def test_measure_to_json_refuses_damaged_arrays(fav_measure_alphai, key,
                                                value, match):
    a = getattr(fav_measure_alphai, key).copy()
    a.flat[0] = value
    with pytest.raises(ValueError, match=match):
        clark.measure_to_json(dataclasses.replace(fav_measure_alphai,
                                                  **{key: a}))


def _base64_layout(obj, m):
    # the layout before recipes: no digest, and the arrays as records of
    # their shape and the base64 of their raw bytes
    del obj["sha256"]
    for key in ("base", "atoms", "weights"):
        a = getattr(m, key)
        obj[key] = {"shape": list(a.shape), "data": _b64(a)}


def _b64(a):
    return base64.b64encode(a.tobytes()).decode("ascii")


def _per_branch(obj, m):
    # the per-branch layout: each branch's atoms and weights, no base
    del obj["sha256"]
    obj["branches"] = [{"values": _b64(m.atoms[0]),
                        "weights": _b64(m.weights[0])}]


def _flat_nodes(obj, m):
    # the flat layout: one (zeta1, zeta2) row per atom and its weight
    del obj["sha256"]
    nodes = np.stack([np.broadcast_to(m.base[:, 0], m.atoms.shape),
                      m.atoms], axis=-1).reshape(-1, 2)
    obj.update(nodes=_b64(nodes), weights=_b64(m.weights))


def _text_arrays(obj, m):
    # the arrays as text, as written before the binary encoding
    del obj["sha256"]
    obj["atoms"] = np.stack([m.atoms.real, m.atoms.imag], axis=-1).tolist()
    obj["weights"] = m.weights.tolist()


def _pop(key):
    return lambda obj, m: obj.pop(key)


def _set(key, value):
    return lambda obj, m: obj.update({key: value})


def _rif(**fields):
    # the rif header of fav as measure_to_json writes it, fields overridden
    def damage(obj, m):
        obj["rif"].update(fields)
    return damage


@pytest.mark.parametrize("damage, match", [
    (_base64_layout, "record needs the keys alpha, grid_n, rif, sha256"),
    (_per_branch, "record needs the keys alpha, grid_n, rif, sha256"),
    (_flat_nodes, "record needs the keys alpha, grid_n, rif, sha256"),
    (_text_arrays, "record needs the keys alpha, grid_n, rif, sha256"),
    (_pop("rif"), "record needs the keys"),
    (_pop("alpha"), "record needs the keys"),
    (_pop("grid_n"), "record needs the keys"),
    (_pop("sha256"), "record needs the keys"),
    (_set("type", "clark"), "not a serialized Clark measure"),
    (_set("rif", [[1, 1], [[2, 0], [-1, 0], [-1, 0], [0, 0]]]),
     "rif needs the keys degrees, den"),
    (_set("alpha", [0, 1, 0]), "alpha must be a pair"),
    (_set("alpha", [1]), "alpha must be a pair"),
    (_set("alpha", [3, 0]), "alpha must be unimodular"),
    (_set("alpha", ["0", 1]), "alpha must be a pair .* of finite numbers"),
    (_set("alpha", [float("nan"), 1]),
     "alpha must be a pair .* of finite numbers"),
    (_set("grid_n", 0), "grid_n must be a positive integer"),
    (_set("grid_n", 1.7), "grid_n must be a positive integer"),
    (_set("grid_n", True), "grid_n must be a positive integer"),
    (_rif(degrees=[1.7, 1]), "degrees must be a non-empty list"),
    (_rif(degrees=[0, 1]), "degrees must be a non-empty list"),
    (_rif(degrees=1), "degrees must be a non-empty list"),
    (_rif(degrees=[1, 1, 1]), "degree tuple has wrong length"),
    (_rif(den=[[1, 1], [[2, 0], [-1, 0], [-1, 0], [0, 0]]]),
     "polynomial record needs the keys"),
    (_rif(den={"degrees": [1, 1]}), "polynomial record needs the keys"),
    (_rif(den={"degrees": [1.7, 1], "coeffs": [[2, 0], [-1, 0], [-1, 0],
                                               [0, 0]]}),
     "degrees must be a non-empty list"),
], ids=["base64_layout", "per_branch", "flat_nodes", "text_arrays", "no_rif",
        "no_alpha", "no_grid_n", "no_sha256", "other_type", "rif_list",
        "alpha_three", "alpha_one",
        "alpha_off_circle", "alpha_text", "alpha_nan", "grid_zero",
        "grid_fraction", "grid_bool", "rif_fractional_degree",
        "rif_zero_degree", "rif_scalar_degrees", "rif_three_degrees",
        "den_list", "den_no_coeffs", "den_fractional_degree"])
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


@pytest.mark.parametrize("name", ["fav", "squared"])
@pytest.mark.parametrize("dt", [-5e-6, 5e-6])
def test_refusal_window_starts_below_five_millionths(corpus, name, dt):
    # the slices at angle pi |t - 1| / 2, next to the emerging line at
    # zeta1 = 1, have h rows of 3e-11 to 5e-11 of h's scale: a zero-slice
    # test above the contraction's rounding floor drops them and loses 40%
    # of the mass; at 2e-6 the weights themselves are off and the guard
    # refuses
    phi = corpus[name]
    alpha = np.exp(1j * np.pi * (1.0 + dt))
    m = clark.build_measure(phi, alpha, 512)
    assert abs(clark.total_mass(m) / clark.expected_mass(phi, alpha) - 1.0) \
        <= clark.MASS_GAP_TOL
    with pytest.raises(MassGapExceeded):
        clark.build_measure(phi, np.exp(1j * np.pi * (1.0 + 0.4 * dt)), 512)


def test_product_outcomes_next_to_its_singularity(product):
    # no line emerges here: product's slices next to (1, 1) keep rows at
    # h's scale, so the zero-slice test decides none of these outcomes
    builds = {-1e-5, 1e-5, -5e-6, 5e-6, -2e-6, 2e-6, -1e-6, 1e-6, -1e-8}
    for dt in (1e-5, 5e-6, 2e-6, 1e-6, 1e-7, 1e-8, 1e-9):
        for t in (-dt, dt):
            alpha = np.exp(1j * np.pi * (1.0 + t))
            if t in builds:
                clark.build_measure(product, alpha, 512)
            else:
                with pytest.raises(MassGapExceeded):
                    clark.build_measure(product, alpha, 512)


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


@pytest.mark.parametrize("alpha", [np.nan, complex(np.nan, 0.0), np.inf])
def test_build_measure_refuses_non_finite_alpha(fav, alpha):
    # a NaN alpha fails every comparison: the guard refuses it up front,
    # not as a mass gap of NaN after the build
    with pytest.raises(ValueError, match="unimodular"):
        clark.build_measure(fav, alpha, 256)


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
        gap = np.abs(np.angle(m.base[:, 0] / line.tau))
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

    off = 2 * np.array([np.sum(m.weights * np.abs(np.abs(z) - 1.0))
                        for z in (m.base[:, 0], m.atoms)])
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
                                 base=m.base * np.exp(1e-6j), atoms=m.atoms,
                                 weights=m.weights, lines=[])
    assert clark.moment_residual(rotated, 12) > 1e-7


@pytest.mark.parametrize("alpha", [2.0, 0.5j, np.nan, complex(np.inf, 0)])
def test_exact_oracles_refuse_alpha_off_the_circle(fav, alpha):
    # the oracles are formulas in alpha and would return numbers anywhere
    with pytest.raises(ValueError, match="unimodular"):
        clark.exact_moments(fav, alpha, 2)
    with pytest.raises(ValueError, match="unimodular"):
        clark.expected_mass(fav, alpha)


def test_moment_residual_sees_mixed_moments(fav):
    # a signed density 2 eps Re(conj(zeta1) zeta2) on a 32 x 32 torus grid
    # keeps every moment of conj(zeta1)^j conj(zeta2)^k, j, k <= 12, and
    # gives the mixed moment of zeta1 conj(zeta2) the value eps
    alpha, eps = np.exp(0.3j * np.pi), 1e-9
    m = clark.build_measure(fav, alpha, 1024)
    g = np.exp(2j * np.pi * np.arange(32) / 32)
    z1, z2 = (a.ravel() for a in np.meshgrid(g, g, indexing="ij"))
    ghost = 2.0 * eps * np.real(np.conj(z1) * z2) / 32 ** 2
    # fav has one atom per slice, so each ghost point is a base node with
    # its one atom
    mixed = clark.ClarkMeasure(
        phi=fav, alpha=alpha, grid_n=1024,
        base=np.append(m.base[:, 0], z1)[:, None],
        atoms=np.append(m.atoms, z2)[None],
        weights=np.append(m.weights, ghost)[None], lines=[])
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


def test_verify_poisson_takes_three_variables():
    # the tridisk measure goes through the two-variable body, and a point
    # of the wrong arity gets a typed message before any sum
    m = polydisk.build_measure_d(catalog.tridisk_rif(4.0), np.exp(0.9j), 64)
    assert clark.verify_poisson(m, [(0.1, 0.2, 0.3)]).max_rel_err < 1e-13
    with pytest.raises(ValueError, match="needs points of 3 coordinates"):
        clark.verify_poisson(m, [(0.1, 0.2)])


def test_exact_moments_take_the_tridisk():
    # one power-series division over the 3-D coefficient tensor: the table
    # of a built measure, to its rule's error, and zero mixed moments
    phi, alpha = catalog.tridisk_rif(4.0), 1.0j
    exact = clark.exact_moments(phi, alpha, 2)
    assert exact.shape == (3, 3, 3)
    m = polydisk.build_measure_d(phi, alpha, 64)
    assert np.max(np.abs(clark.herglotz_moments(m, 2) - exact)) < 1e-13
    assert abs(exact[0, 0, 0] - clark.expected_mass(phi, alpha)) < 1e-15
    assert clark.moment_residual(m, 2) < 1e-13


def test_poisson_points_of_the_wrong_arity_are_refused(fav_measure_alphai):
    for pts in ([(0.1, 0.2, 0.3)], [(0.1,)], [(0.1, 0.2), (0.3, 0.1, 0.2)]):
        with pytest.raises(ValueError, match="Poisson verification needs "
                                             "points of 2 coordinates"):
            clark.verify_poisson(fav_measure_alphai, pts)


def test_build_measure_refuses_four_variables():
    # one builder for two and three variables; four wait on a certificate
    # that does not scan a grid to the power d - 1
    with pytest.raises(ValueError, match="two or three variables, not 4"):
        clark.build_measure(catalog.monomial_rif(4), np.exp(0.9j))


def test_build_measure_defaults_by_dimension(fav):
    assert clark.build_measure(fav, GENERIC).grid_n == 4096
    m = clark.build_measure(catalog.tridisk_rif(3.6), GENERIC)
    assert m.grid_n == 256 and m.base.shape == (256 * 256, 2)


def test_tridisk_build_keeps_its_digest():
    # the digest of the tensor-grid build as the three-variable builder
    # wrote it before build_measure took three variables, under both names
    want = "aa8cf1586b0820642ccdb6f5646c0c7deb6458ef7435c561904c1d3ffb64a5e2"
    phi = catalog.tridisk_rif(3.6)
    assert clark._digest(clark.build_measure(phi, GENERIC, 32)) == want
    assert clark._digest(polydisk.build_measure_d(phi, GENERIC, 32)) == want


def _exact_moments_by_entries(phi, alpha, D):
    """exact_moments' division one entry at a time in row-major order."""
    h = phi.level_coeffs(alpha)
    M = np.zeros((D + 1,) * phi.dim, dtype=complex)
    q = np.zeros_like(M)
    cut = tuple(slice(min(n, D + 1)) for n in h.shape)
    M[cut], q[cut] = -h[cut], phi.num.coeffs[cut]
    N = 2.0 * q + M
    H = np.zeros_like(M)
    for j in np.ndindex(M.shape):
        acc = sum(M[l] * H[tuple(a - b for a, b in zip(j, l))]
                  for l in np.ndindex(M.shape)
                  if any(l) and all(b <= a for a, b in zip(j, l)))
        H[j] = (N[j] - acc) / M.flat[0]
    C = H / 2.0
    C.flat[0] = H.flat[0].real
    return C


@pytest.mark.parametrize("name", ["fav", "product", "tridisk"])
def test_exact_moments_by_hyperplanes_match_the_entrywise_division(
        corpus, name):
    # the total-degree order gives the row-major division's numbers
    phi = catalog.tridisk_rif(3.3) if name == "tridisk" else corpus[name]
    for alpha in (GENERIC, -1.0):
        want = _exact_moments_by_entries(phi, alpha, 5)
        got = clark.exact_moments(phi, alpha, 5)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_exact_moments_of_the_tridisk_at_degree_twenty():
    # every moment of total degree up to 60 in three variables against a
    # built measure, mixed moments included
    m = clark.build_measure(catalog.tridisk_rif(3.6), GENERIC, 128)
    assert clark.moment_residual(m, 20) <= 1e-13


def test_verify_poisson_refuses_no_points(fav_measure_alphai):
    with pytest.raises(ValueError, match="at least one point"):
        clark.verify_poisson(fav_measure_alphai, [])


def test_moments_refuse_a_negative_degree(fav, fav_measure_alphai):
    # the exact table and the residual give the measured table's message
    calls = [lambda: clark.herglotz_moments(fav_measure_alphai, -1),
             lambda: clark.exact_moments(fav, 1.0j, -1),
             lambda: clark.moment_residual(fav_measure_alphai, -1)]
    for call in calls:
        with pytest.raises(ValueError, match="moment degree must be "
                                             "non-negative, got -1"):
            call()


def _blank_roots(monkeypatch, N):
    """Make the build's kernel leave the second root of slice 0 and both
    roots of slice N/2 NaN, for a two-atom build of N <= SLICE_BLOCK
    slices (one block)."""
    atom_blocks = clark._atom_blocks

    def blank(hcoef, pcoef, pts, roots, num):
        for b, den, _, *at0 in atom_blocks(hcoef, pcoef, pts, roots, num):
            roots[1, 0] = np.nan
            roots[:, N // 2] = np.nan
            # the block now holds empty atoms
            yield b, den, False, *at0

    monkeypatch.setattr(clark, "_atom_blocks", blank)


def test_build_keeps_blank_roots_as_empty_atoms(squared, monkeypatch):
    # the kernel leaves NaN where a slice drops degree (its last roots) or
    # vanishes (all of them).  Here slice 0 loses its second root and slice
    # N/2 both: atoms at the singular points (+-1, +-1), where p vanishes,
    # so the mass guard passes without them.  Their computed weight is the
    # Horner rounding of |p(r)| on the circle, below 4 eps sum_j |p_j| of
    # the slice rows of p over den N (4.6e-19 here; the exact weight at
    # the float node -1 + 1.2e-16i is about 1.7e-35)
    alpha, N = np.exp(0.7j), 1024
    full = clark.build_measure(squared, alpha, N)
    cols = [0, N // 2]
    _, _, den, _ = slice_atoms(squared, alpha, full.base[cols])
    p_rows = slice_coeffs(squared.den.coeffs, full.base[cols])
    rounding = 4.0 * np.finfo(float).eps * np.sum(np.abs(p_rows), axis=0)
    assert np.all(full.weights[:, cols] <= rounding / (den * N))
    _blank_roots(monkeypatch, N)
    m = clark.build_measure(squared, alpha, N)
    empty = np.zeros(m.atoms.shape, dtype=bool)
    empty[1, 0] = True
    empty[:, N // 2] = True
    # a finite unimodular placeholder of weight exactly 0, no gather
    assert np.all(m.atoms[empty] == 1.0) and np.all(m.weights[empty] == 0.0)
    assert np.array_equal(m.base, full.base)
    assert np.array_equal(m.atoms[~empty], full.atoms[~empty])
    assert np.array_equal(m.weights[~empty], full.weights[~empty])
    # every sum stays finite, and adds exactly 0 for an empty atom: it
    # matches the full build with those weights set to 0 bit for bit
    full.weights[empty] = 0.0
    assert clark.total_mass(m) == clark.total_mass(full)
    pts = _poisson_points(count=6)
    for call in (lambda x: clark.verify_poisson(x, pts).rhs,
                 lambda x: clark.herglotz_moments(x, 8),
                 lambda x: embedding._torus_moments(x, 4),
                 lambda x: embedding.gram_isometry_check(
                     squared, alpha, pts, x).gram_embedded):
        got = call(m)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, call(full))
    # integrate evaluates f only at atoms of non-zero weight
    seen = []

    def f(a, b):
        seen.append(len(b))
        return a * np.conj(b)

    got = clark.integrate(m, f)
    assert sum(seen) == np.count_nonzero(m.weights) < m.weights.size
    assert got == clark.integrate(full, lambda a, b: a * np.conj(b))
    text = clark.measure_to_json(m)
    back = clark.measure_from_json(text)
    assert clark.measure_to_json(back) == text
    for key in ("base", "atoms", "weights"):
        assert np.array_equal(getattr(back, key).view(np.uint64),
                              getattr(m, key).view(np.uint64))


def _flat(m):
    """The measure's level-set points (zeta1, zeta2) and weights, one per
    atom, root-major."""
    z1 = np.broadcast_to(m.base[:, 0], m.atoms.shape).ravel()
    return z1, m.atoms.ravel(), m.weights.ravel()


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("alpha", [GENERIC, -1.0 + 0.0j],
                         ids=["generic", "minus_one"])
@pytest.mark.parametrize("name", ["monomial", "fav", "squared", "product",
                                  "diagonal"])
def test_fibered_sums_match_flat_sums(corpus, name, alpha):
    # each integrator shares the zeta1 factors over a fiber; written out
    # node by node, with no line terms (dropped from the measure), every
    # sum agrees to rounding
    phi = corpus[name]
    m = dataclasses.replace(clark.build_measure(phi, alpha, 512), lines=[])
    z1, z2, w = _flat(m)
    pts = _poisson_points(count=6)
    p = np.array(pts)

    def poisson(z, w):
        return (1 - np.abs(w[:, None]) ** 2) / np.abs(z - w[:, None]) ** 2

    ref = (poisson(z1, p[:, 0]) * poisson(z2, p[:, 1])) @ w
    assert _rel(clark.verify_poisson(m, pts).rhs, ref) <= 1e-14

    D = 8
    j = np.arange(D + 1)[:, None]
    c1, c2 = np.conj(z1) ** j, np.conj(z2) ** j
    assert _rel(clark.herglotz_moments(m, D), (c1 * w) @ c2.T) <= 1e-14
    C, X = clark._moment_tables(m, D, mixed=True)
    assert _rel(X, (np.conj(c1) * w) @ c2.T) <= 1e-14

    pre = 1.0 - alpha * np.conj(phi(p[:, 0], p[:, 1]))
    F = pre[:, None] / ((1 - np.conj(p[:, :1]) * z1)
                        * (1 - np.conj(p[:, 1:]) * z2))
    gram = embedding.gram_isometry_check(phi, alpha, pts, m).gram_embedded
    assert _rel(gram, (F * w) @ np.conj(F).T) <= 1e-14


# builds at N = 1024 of one, two and three atoms per slice, with lines
# (squared at -1) and with empty atoms (weight 0 at the placeholder 1)
_MOMENT_BUILDS = {
    "fav": (catalog.simple_singular_rif, GENERIC),
    "squared": (catalog.squared_singular_rif, GENERIC),
    "random_k3": (lambda: catalog.random_rif(1, 3, 0), GENERIC),
    "squared_lines": (catalog.squared_singular_rif, -1.0 + 0.0j),
    "empty_atoms": (catalog.squared_singular_rif, GENERIC),
}


def _moment_build(name, monkeypatch):
    make, alpha = _MOMENT_BUILDS[name]
    if name == "empty_atoms":
        _blank_roots(monkeypatch, 1024)
    m = clark.build_measure(make(), alpha, 1024)
    assert (name == "squared_lines") == bool(m.lines)
    return m


def _brute_tables(m, D):
    """C and X summed over every atom and every node of each line's
    uniform rule, with no fiber shared: conj(zeta1)^j (zeta1^j for X)
    times w conj(zeta2)^k."""
    z1, z2, w = _flat(m)
    N = m.grid_n
    for line in m.lines:
        z1 = np.append(z1, np.full(N, complex(line.tau)))
        z2 = np.append(z2, unit_roots(N))
        w = np.append(w, np.full(N, line.constant / N))
    j = np.arange(D + 1)[:, None]
    c2 = np.conj(z2) ** j
    return (np.conj(z1) ** j * w) @ c2.T, (z1 ** j * w) @ c2.T


def _table_reference(m, D):
    """C and X as computed before the running power: per block a
    (D + 1, k, block) table of w conj(zeta2)^k, summed over its k atoms in
    row order, and one product each with the conj(zeta1) powers and their
    conjugates."""
    C = np.zeros((D + 1, D + 1), dtype=complex)
    X = np.zeros_like(C)
    for base, atoms, w in clark._fiber_blocks(m):
        B = np.empty((D + 1,) + w.shape, dtype=complex)
        B[0] = w
        c2 = np.conj(atoms)
        for k in range(1, D + 1):
            np.multiply(B[k - 1], c2, out=B[k])
        G = B[:, 0, :]
        for r in range(1, len(w)):
            G += B[:, r, :]
        A = np.empty((D + 1, len(base)), dtype=complex)
        A[0] = 1.0
        c1 = np.conj(base[:, 0])
        for j in range(1, D + 1):
            np.multiply(A[j - 1], c1, out=A[j])
        C += A @ G.T
        X += np.conj(A) @ G.T
    j = np.arange(D + 1)[:, None]
    N = m.grid_n
    for line in m.lines:
        tau = complex(line.tau)
        C[:, ::N] += line.constant * np.conj(tau) ** j
        X[:, ::N] += line.constant * tau ** j
    return C, X


@pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
@pytest.mark.parametrize("D", [0, 1, 8, 32])
@pytest.mark.parametrize("name", list(_MOMENT_BUILDS))
def test_moment_tables_match_the_sum_over_every_atom(name, D, mixed,
                                                     monkeypatch):
    m = _moment_build(name, monkeypatch)
    C, X = clark._moment_tables(m, D, mixed)
    C_ref, X_ref = _brute_tables(m, D)
    assert _rel(C, C_ref) <= 1e-13
    if mixed:
        assert _rel(X, X_ref) <= 1e-13
    else:
        assert X is None


@pytest.mark.parametrize("block", [None, 300], ids=["one_block", "300"])
@pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
@pytest.mark.parametrize("D", [0, 1, 8, 32])
@pytest.mark.parametrize("name", list(_MOMENT_BUILDS))
def test_moment_tables_keep_the_power_table_bits(name, D, mixed, block,
                                                  monkeypatch):
    # the running power forms the same products in the same order as the
    # table it replaced; only the stacked mixed product at D = 0, a BLAS
    # vector product, may round otherwise.  Blocks of 300 atoms leave a
    # short last block, which uses part of the block operands
    m = _moment_build(name, monkeypatch)
    if block:
        monkeypatch.setattr(clark, "_BLOCK_NODES", block)
    C, X = clark._moment_tables(m, D, mixed)
    C_ref, X_ref = _table_reference(m, D)
    got, ref = (np.stack((C, X)), np.stack((C_ref, X_ref))) if mixed \
        else (C, C_ref)
    if D or not mixed:
        assert np.array_equal(got, ref)
    else:
        assert _rel(got, ref) <= 4.0 * np.finfo(float).eps


def test_herglotz_moments_hold_only_their_block_operands(squared):
    # herglotz_moments(32) holds the conj(zeta1) powers A and the fiber
    # sums G of one block (2048 base nodes of squared, about 1.1 MB each)
    # and a running power of two rows; a (D + 1, k, block) table of
    # conj(zeta2) powers would add another 2.2 MB
    m = clark.build_measure(squared, GENERIC, 65536)
    D = 32
    k, base = m.weights.shape
    operands = 2 * (D + 1) * min(base, clark._BLOCK_NODES // k) * 16
    tracemalloc.start()
    try:
        clark.herglotz_moments(m, D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * operands, (peak, operands)
