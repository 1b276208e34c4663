"""Acceptance suite: one test per numbered criterion.

Each test registers a PASS/FAIL line through the ``criterion`` context
manager; conftest prints the collected lines after the run.  Tolerances
here are contractual — do not loosen them to make a failure go away.
"""

import time
from contextlib import contextmanager

import numpy as np

import conftest
from rifclark import catalog, clark, contact, embedding, polydisk

GEN = np.exp(0.7j)          # a generic alpha for every corpus member
ALPHAS_8 = [1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j,
            np.exp(1j * np.pi / 3), np.exp(0.7j), np.exp(2.3j),
            0.6 + 0.8j]

_measures: dict = {}


@contextmanager
def criterion(idx, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        conftest.ACCEPTANCE_RESULTS[idx] = (label, ok)
        print(f"criterion {idx} ({label}): {'PASS' if ok else 'FAIL'}")


def cached_measure(phi, key, alpha, grid_n):
    tag = (key, complex(alpha), grid_n)
    if tag not in _measures:
        _measures[tag] = clark.build_measure(phi, alpha, grid_n)
    return _measures[tag]


def interior_points(rng, count, radius):
    r = radius * np.sqrt(rng.uniform(size=(count, 2)))
    a = 2 * np.pi * rng.uniform(size=(count, 2))
    z = r * np.exp(1j * a)
    return list(zip(z[:, 0], z[:, 1]))


def test_c1_mass_identity(monomial, fav, squared):
    with criterion(1, "mass identity, 3 functions x 8 alphas"):
        for name, phi in (("monomial", monomial), ("fav", fav),
                          ("squared", squared)):
            for alpha in ALPHAS_8:
                t0 = time.perf_counter()
                m = cached_measure(phi, name, alpha, 4096)
                mass = clark.total_mass(m)
                dt = time.perf_counter() - t0
                assert abs(mass - 1.0) < 1e-8, (name, alpha, mass)
                assert dt < 5.0, (name, alpha, dt)


def test_c2_poisson_identity(corpus, squared):
    with criterion(2, "Poisson identity at 20 interior points"):
        cases = [(name, phi, GEN) for name, phi in corpus.items()]
        cases.append(("squared", squared, -1.0 + 0.0j))
        for name, phi, alpha in cases:
            t0 = time.perf_counter()
            m = cached_measure(phi, name, alpha, 8192)
            rng = np.random.default_rng(0)
            pts = [z for z in interior_points(rng, 25, 0.7)
                   if abs(complex(phi(*z)) - alpha) > 1e-3][:20]
            assert len(pts) == 20
            rep = clark.verify_poisson(m, pts)
            dt = time.perf_counter() - t0
            assert rep.max_rel_err < 1e-6, (name, alpha, rep.max_rel_err)
            assert dt < 30.0, (name, dt)


def test_c3_closed_form_branch(fav):
    with criterion(3, "closed-form branch and weights at alpha=1"):
        m = cached_measure(fav, "fav", 1.0 + 0.0j, 4096)
        # one branch on the uniform grid, so each weight is the Clark
        # weight over 4096
        assert m.base.shape == (4096, 1) and m.atoms.shape == (1, 4096)
        z1, z2 = m.base[:, 0], m.atoms[0]
        theta = 2 * np.pi * np.arange(4096) / 4096
        assert np.max(np.abs(z1 - np.exp(1j * theta))) < 1e-15
        assert np.max(np.abs(z2 - np.conj(z1))) < 1e-10
        assert np.max(np.abs(4096 * m.weights[0] - (1 - np.cos(theta)))) \
            < 1e-8


def test_c4_exceptional_structure(squared):
    with criterion(4, "exceptional measure structure at alpha=-1"):
        m = cached_measure(squared, "squared", -1.0 + 0.0j, 4096)
        assert len(m.lines) == 2
        taus = sorted(round(ln.tau.real) for ln in m.lines)
        assert taus == [-1, 1] and all(ln.axis == 1 for ln in m.lines)
        for ln in m.lines:
            assert abs(ln.constant - 0.25) < 1e-8
        # two constant branches zeta2 = +-1 on the uniform grid, weight 1/4
        assert m.base.shape == (4096, 1) and m.atoms.shape == (2, 4096)
        for c in (1.0, -1.0):
            # one atom zeta2 = c over each zeta1 node
            assert np.all(np.sum(np.abs(m.atoms - c) < 1e-10, axis=0) == 1)
        assert np.max(np.abs(4096 * m.weights - 0.25)) < 1e-8
        assert abs(clark.total_mass(m) - 1.0) < 1e-12


def test_c5_contact_order(fav):
    with criterion(5, "contact order K=2 at the singularity"):
        sing = (1.0 + 0.0j, 1.0 + 0.0j)
        fits = [contact.weight_vanish_order(fav, a, sing)
                for a in (1.0 + 0.0j, 1.0j, np.exp(1j * np.pi / 3))]
        for fit in fits:
            assert abs(fit.exponent - 2.0) <= 0.1
            assert 0.0 < fit.constant
        # parity: the rounded order is a positive even integer
        assert all(f.rounded == 2 for f in fits)
        # alpha-independence: every fit rounds to the same order and the
        # raw exponents agree far more tightly than the +-0.1 window
        exps = [f.exponent for f in fits]
        assert max(exps) - min(exps) < 0.02


def test_c6_embedding_dichotomy(fav, squared):
    with criterion(6, "Gram isometry and polynomial density dichotomy"):
        m = cached_measure(fav, "fav", GEN, 4096)
        rng = np.random.default_rng(1)
        rep = embedding.gram_isometry_check(fav, GEN,
                                            interior_points(rng, 10, 0.6), m)
        assert rep.max_abs_error < 1e-5

        m1 = cached_measure(squared, "squared", 1.0 + 0.0j, 4096)
        dens = embedding.density_distance(m1, 4)
        assert dens.distance_zbar2 < 1e-6

        mx = cached_measure(squared, "squared", -1.0 + 0.0j, 4096)
        for D in range(1, 17):
            dist = embedding.density_distance(mx, D).distance_zbar2
            assert dist >= 0.69, (D, dist)


def test_c7_tridisk():
    with criterion(7, "tridisk closed forms, builder, and blow-up"):
        # general builder against the closed-form weight, s = 4
        phi4 = catalog.tridisk_rif(4.0)
        for alpha in (1.0 + 0.0j, 1.0j, np.exp(0.9j)):
            m = polydisk.build_measure_d(phi4, alpha, 64)
            assert m.base.shape == (64 * 64, 2)
            assert m.atoms.shape == m.weights.shape == (1, 64 * 64)
            w = polydisk.tridisk_weight(4.0, alpha, *m.base.T)
            assert np.max(np.abs(64 * 64 * m.weights[0] - w)) < 1e-8

        rep = polydisk.verify_poisson_d(4.0, np.exp(0.9j),
                                        (0.3 + 0.2j, -0.4j, 0.25), 512)
        assert rep.rel_err < 1e-5

        th = 2 * np.pi * np.arange(1, 512) / 512
        w = polydisk.tridisk_weight(3.0, -1.0 + 0.0j, np.exp(1j * th),
                                    np.exp(-1j * th))
        exact = 1 + 1 / (1 - np.cos(th))
        assert np.max(np.abs(w - exact) / exact) < 1e-8

        nt = contact.nontangential_value(catalog.tridisk_rif(3.0),
                                         (1.0, 1.0, 1.0))
        assert abs(nt - (-1.0)) < 1e-6


def test_c8_herglotz_round_trip(fav):
    with criterion(8, "Herglotz reconstruction of the inner function"):
        m = cached_measure(fav, "fav", 1.0 + 0.0j, 4096)
        H = clark.herglotz_reconstruct(m, 32)
        radii = np.array([0.0, 0.25, 0.5])
        angles = np.exp(2j * np.pi * np.arange(8) / 8)
        pts = np.unique((radii[:, None] * angles[None, :]).ravel())
        Z1, Z2 = np.meshgrid(pts, pts, indexing="ij")
        err = np.abs(H(Z1, Z2) - fav(Z1, Z2))
        assert np.max(err) < 1e-3


def test_c9_support_and_weak_star(corpus, squared):
    with criterion(9, "branch residuals and weak-star continuity"):
        cases = [(name, phi, GEN) for name, phi in corpus.items()]
        cases.append(("squared", squared, -1.0 + 0.0j))
        for name, phi, alpha in cases:
            h = phi.level_coeffs(alpha)
            scale = np.max(np.abs(h))
            # every measure atom, clustered ones included, is a level point
            m = clark.build_measure(phi, alpha, 2048)
            z1, z2 = np.broadcast_to(m.base[:, 0], m.atoms.shape), m.atoms
            res = np.abs(phi.num(z1, z2) - alpha * phi.den(z1, z2))
            assert np.max(res) < 1e-8 * scale, name

        def f(z1, z2):
            return (np.real(z1 ** 2)
                    + 0.5 * np.real(z1 ** 2 * np.conj(z2) ** 2)
                    + 0.3 * np.imag(z2 ** 2))

        limit = clark.integrate(
            cached_measure(squared, "squared", -1.0 + 0.0j, 4096), f)
        errs = []
        for i in range(1, 7):
            alpha = -np.exp(1j * 2.0 ** -i)
            m = clark.build_measure(squared, alpha, 4096)
            errs.append(abs(clark.integrate(m, f) - limit))
        assert errs[-3] > errs[-2] > errs[-1], errs
