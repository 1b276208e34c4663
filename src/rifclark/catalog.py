"""Ready-made rational inner functions used in tests and documentation.

All of them are built from small stable denominators; the names describe
their structure, not their provenance.
"""

from __future__ import annotations

import numpy as np

from .poly import PolyMD, Rif


def monomial_rif(d: int = 2) -> Rif:
    """z_1 * ... * z_d, realized as reflect(1) / 1 at degrees (1, ..., 1)."""
    coeffs = np.ones((1,) * d, dtype=np.complex128)
    return Rif(PolyMD(coeffs), degrees=(1,) * d)


def simple_singular_rif() -> Rif:
    """(2 z1 z2 - z1 - z2) / (2 - z1 - z2).

    Bidegree (1, 1), one boundary singularity at (1, 1), where the
    function has nontangential value -1.
    """
    return Rif(PolyMD([[2.0, -1.0], [-1.0, 0.0]]))


def squared_singular_rif() -> Rif:
    """(2 z1^2 z2^2 - z1^2 - z2^2) / (2 - z1^2 - z2^2).

    The simple singular example composed with (z1^2, z2^2): bidegree
    (2, 2), four boundary singularities (+-1, +-1), and alpha = -1 is an
    exceptional value with line components on both axes.
    """
    return Rif(PolyMD([[2.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))


def product_singular_rif() -> Rif:
    """z1 z2 * (2 z1 z2 - z1 - z2) / (2 - z1 - z2).

    Same denominator as the simple singular example but reflected at
    degrees (2, 2); the two level-set branches touch at the boundary
    singularity when alpha = -1, which stresses branch relabeling.
    """
    return Rif(simple_singular_rif().den, degrees=(2, 2))


def contact_four_rif() -> Rif:
    """(4 z1^2 z2 - z1^2 - 3 z1 z2 - z1 + z2) / (4 - 3 z1 - z2 - z1 z2 + z1^2).

    Bidegree (2, 1), one boundary singularity at (1, 1), where the
    function has nontangential value -1 and contact order 4: at generic
    alpha the level-set branches agree there to third order.
    """
    return Rif(PolyMD([[4.0, -1.0], [-3.0, -1.0], [1.0, 0.0]]))


def diagonal_rif() -> Rif:
    """(1 + 2 z1 z2) / (2 + z1 z2); value 1/2 at the origin, no singularities."""
    return Rif(PolyMD([[2.0, 0.0], [0.0, 1.0]]))


def tridisk_s(s: float) -> float:
    """``s`` as a float where phi_s is inner (the family's one range check)."""
    s = float(s)
    if not 3.0 <= s < np.inf:  # NaN fails both
        raise ValueError("the family needs a finite s >= 3 (inner only there)")
    return s


def tridisk_rif(s: float) -> Rif:
    """(s z1 z2 z3 - z1 z2 - z1 z3 - z2 z3) / (s - z1 - z2 - z3).

    Inner on the tridisk for s >= 3; s = 3 has a boundary zero at
    (1, 1, 1) and s > 3 is stable on the closed tridisk.
    """
    c = np.zeros((2, 2, 2), dtype=np.complex128)
    c[0, 0, 0] = tridisk_s(s)
    c[1, 0, 0] = -1.0
    c[0, 1, 0] = -1.0
    c[0, 0, 1] = -1.0
    return Rif(PolyMD(c))


def planted_zero(seed: int) -> tuple[complex, complex]:
    """The torus point at which ``random_rif(.., seed, singular=True)``
    plants its boundary zero."""
    return _torus_point(np.random.default_rng(seed))


def _torus_point(rng):
    t1, t2 = np.exp(2j * np.pi * rng.random(2))
    return complex(t1), complex(t2)


def _haar_unitary(rng, n):
    """Haar-distributed n x n unitary: QR of a complex Gaussian, with the
    phases of R's diagonal moved into Q."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_rif(n1: int, n2: int, seed: int, singular: bool = False) -> Rif:
    """A seeded random RIF of bidegree (n1, n2) from a contractive
    realization p = det(I - D Delta(z)), Delta(z) = diag(z1 I_n1, z2 I_n2).

    D is a strict contraction U diag(s) V with Haar unitaries U, V and
    singular values s uniform in [0, 1), so p has no zeros on the closed
    bidisk.  A ``singular`` draw plants a torus zero at tau =
    ``planted_zero(seed)``: with a unit vector x and y = Delta(tau) x,
    D = x y* + P_x C P_y, where P_x, P_y project onto the complements of
    x and y and C is such a strict contraction, so D Delta(tau) x = x and
    ||D|| = 1.  The coefficients are p on the (n1 + 1) x (n2 + 1) grid of
    roots of unity, through fft2 over the grid size.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("random_rif needs bidegree at least (1, 1)")
    rng = np.random.default_rng(seed)
    tau = _torus_point(rng)
    n = n1 + n2
    s = rng.random(n)
    d = _haar_unitary(rng, n) * s @ _haar_unitary(rng, n)
    if singular:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x /= np.linalg.norm(x)
        y = np.repeat(np.array(tau), (n1, n2)) * x
        eye = np.eye(n)
        d = np.outer(x, y.conj()) \
            + (eye - np.outer(x, x.conj())) @ d @ (eye - np.outer(y, y.conj()))
    z1, z2 = np.meshgrid(*(np.exp(2j * np.pi * np.arange(m) / m)
                           for m in (n1 + 1, n2 + 1)), indexing="ij")
    delta = np.concatenate([np.repeat(z1[..., None], n1, axis=2),
                            np.repeat(z2[..., None], n2, axis=2)], axis=2)
    vals = np.linalg.det(np.eye(n) - d * delta[..., None, :])
    return Rif(PolyMD(np.fft.fft2(vals) / vals.size))
