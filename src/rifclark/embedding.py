"""Finite-rank checks of the Clark embedding into L^2 of a Clark measure.

The embedding sends the deflated reproducing kernel at w to
(1 - alpha * conj(phi(w))) times the Szego product kernel C_w, and is an
isometry on their span.  It is unitary exactly when polynomials are
dense in L^2(sigma), and in two variables the level set's lines
(``levelset.detect_lines``) decide that.  A line {tau} x T of constant c
keeps conj(zeta2), orthogonal to the polynomials on that circle, at
distance >= sqrt(c) from them (under the line's N-point rule, for
degrees below N - 1); horizontal lines bound conj(zeta1) alike.  Without
lines ``conj_rational`` exists: a zero tau of h(0, .), h = q - alpha p,
on the circle makes phi(., tau) reach alpha at 0, so phi(., tau) = alpha
is a horizontal line, and one inside would contradict |phi| < 1 (h(., 0)
likewise); so conj(zeta_j) are uniform limits of polynomials on the
support, and the distances fall to 0.  All three facets are checked
numerically here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import poly as _poly
from .clark import (ClarkMeasure, _fiber_blocks, _moment_tables,
                    _polydisk_points)
from .errors import DenominatorVanishes
from .levelset import detect_lines
from .poly import DEGREE_DROP_REL_TOL, Rif, _atom_blocks, companion_roots
from .util import CIRCLE_TOL, unimodular_alpha, unit_roots

CONJ_GRID_N = 512  # zeta1 nodes of conj_rational's residual check
# density_distance keeps Gram eigenvalues above this times the largest: on a
# level set the monomials are nearly dependent, and the rest is rounding
SPECTRAL_CUTOFF = 1e-10


@dataclass(frozen=True)
class GramReport:
    gram_embedded: np.ndarray
    max_abs_error: float


@dataclass(frozen=True)
class DensityReport:
    """The distances to the polynomials of bidegree <= ``degree``, and
    the verdict of the level set's lines (see the module docstring)."""

    degree: int
    distance_zbar2: float
    distance_zbar1: float
    verdict: str


def gram_isometry_check(phi: Rif, alpha: complex, points,
                        measure: ClarkMeasure) -> GramReport:
    """Compare kernel inner products in the model space and in L^2(sigma).

    ``points`` are kernel points w of ``phi.dim`` coordinates, each in
    the open unit disk; ``gram_embedded[i][j]`` integrates the embedded
    kernels at w_i and w_j against the measure, and ``max_abs_error`` is
    its largest gap to the model Gram (1 - conj(phi(w_i)) phi(w_j))
    C_{w_i}(w_j), formed here and not kept, with C_a(b) the Szego kernel,
    the product over coordinates k of 1 / (1 - conj(a_k) b_k).  For an
    exact embedding the two agree; the gap measures quadrature error.
    ValueError unless ``phi`` (degrees and denominator coefficients,
    exactly) and ``alpha`` are the measure's.
    """
    w = _polydisk_points(points, measure.phi.dim, "Gram isometry check")
    # a NaN alpha fails the test too
    if not abs(complex(alpha) - complex(measure.alpha)) <= CIRCLE_TOL:
        raise ValueError("alpha does not match the measure")
    if phi.degrees != measure.phi.degrees or not np.array_equal(
            phi.den.coeffs, measure.phi.den.coeffs):
        raise ValueError("phi does not match the measure")
    M = len(w)
    phw = phi(*w.T)
    cw = 1.0  # a running product: np.prod rounds two variables otherwise
    for wk in w.T:
        cw = cw * (1.0 - np.conj(wk)[:, None] * wk)
    model = (1.0 - np.conj(phw)[:, None] * phw[None, :]) * (1.0 / cw)

    prefac = 1.0 - complex(measure.alpha) * np.conj(phw)
    # the embedded kernel at w_a is prefac_a / prod_k D_ak(zeta_k),
    # D_ak(z) = 1 - conj(w_ak) z: the base factors once per base node, one
    # reciprocal, prefactors out of the sum, in place (a fresh temporary
    # cost as much)
    c = -np.conj(w)
    embedded = np.zeros((M, M), dtype=complex)
    for base, atoms, wq in _fiber_blocks(measure):
        F = np.multiply.outer(c[:, -1], atoms)
        F += 1.0
        for ck, zeta in zip(c.T, base.T):
            F *= 1.0 + np.multiply.outer(ck, zeta)[:, None]
        F = np.reciprocal(F, out=F).reshape(M, -1)
        Fc = np.conj(F)
        F *= wq.reshape(-1)
        embedded += F @ Fc.T
    embedded *= np.outer(prefac, np.conj(prefac))
    if measure.lines:
        # the N-point grid on a line sums the zeta2 kernels to S_N(a, b)
        # (see ClarkMeasure)
        N = measure.grid_n
        a, b = np.conj(w[:, 1])[:, None], w[None, :, 1]
        aN, bN = a ** N, b ** N
        S = (1.0 - aN * bN) / ((1.0 - a * b) * (1.0 - aN) * (1.0 - bN))
        for line in measure.lines:
            g = prefac / (1.0 - np.conj(w[:, 0]) * line.tau)
            embedded += line.constant * np.outer(g, np.conj(g)) * S
    err = float(np.max(np.abs(model - embedded)))
    return GramReport(gram_embedded=embedded, max_abs_error=err)


# ---------------------------------------------------------------------------
# conjugate coordinates as rational functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjRational:
    """Rational representatives of conj(zeta1) and conj(zeta2) on the level set.

    Splitting the level polynomial h = q - alpha p by powers of z1 as
    h = h1(z2) + z1 h2(z), h = 0 gives zeta1 = -h1 / h2, so
    conj(zeta1) = -h2 / h1 on the torus; same with the variables
    exchanged for conj(zeta2).  Both denominators are univariate and
    must be zero-free on the closed disk.  Each part is a coefficient
    tensor in (z1, z2), cut from h as it is (untrimmed): ``r1_den`` h1
    (1, n2 + 1), ``r1_num`` -h2 (n1, n2 + 1), and likewise ``r2_den``
    (n1 + 1, 1) and ``r2_num`` (n1 + 1, n2).
    """

    alpha: complex
    r1_num: np.ndarray
    r1_den: np.ndarray
    r2_num: np.ndarray
    r2_den: np.ndarray
    max_residual: tuple[float, float]

    def r1(self, z1, z2):
        return _ratio(self.r1_num, self.r1_den, z1, z2)

    def r2(self, z1, z2):
        return _ratio(self.r2_num, self.r2_den, z1, z2)


def _ratio(num, den, z1, z2):
    return (_poly._eval_tensor(num, (z1, z2))
            / _poly._eval_tensor(den, (z1, z2)))


def _check_denominators(h):
    """DenominatorVanishes when h(0, .) or h(., 0), of the level tensor h,
    is zero (to DEGREE_DROP_REL_TOL of h's largest coefficient) or has a
    root on the closed disk; ``companion_roots`` drops their trailing
    near-zero coefficients itself."""
    tol = DEGREE_DROP_REL_TOL * np.max(np.abs(h))
    for den in (h[0], h[:, 0]):
        if np.max(np.abs(den)) <= tol:
            raise DenominatorVanishes(
                "conjugate-coordinate denominator is identically zero")
        mod = np.nanmin(np.abs(companion_roots(den[:, None])[:, 0]),
                        initial=np.inf)
        if mod <= 1.0 + CIRCLE_TOL:
            raise DenominatorVanishes(
                f"denominator root with |modulus - 1| = {abs(mod - 1.0):.3g}"
                f" within CIRCLE_TOL = {CIRCLE_TOL:g} of the closed disk: "
                "alpha is exceptional or within rounding of an exceptional "
                "value")


def conj_rational(phi: Rif, alpha: complex) -> ConjRational:
    """Build the rational functions agreeing with conj(zeta_j) on the level set.

    Raises DenominatorVanishes when a denominator has a root on the
    closed unit disk — the hallmark of an exceptional alpha.  The
    ``max_residual`` field records sup |R_j - conj(zeta_j)| over every
    level-set point above the uniform CONJ_GRID_N-point zeta1 grid as an
    end-to-end consistency check.
    """
    if phi.dim != 2:
        raise ValueError("conj_rational expects a two-variable inner function")
    alpha = unimodular_alpha(alpha)
    h = phi.level_coeffs(alpha)
    _check_denominators(h)
    r1, r2 = (-h[1:], h[:1]), (-h[:, 1:], h[:, :1])
    z1 = unit_roots(CONJ_GRID_N)
    z2 = np.empty((phi.degrees[1], CONJ_GRID_N), dtype=complex)
    for _ in _atom_blocks(h, phi._den_full, z1[:, None], z2,
                          np.empty(z2.shape)):
        pass  # z2 holds the slice roots, NaN past a degree drop
    z1 = np.broadcast_to(z1, z2.shape)
    res1 = float(np.nanmax(np.abs(_ratio(*r1, z1, z2) - np.conj(z1))))
    res2 = float(np.nanmax(np.abs(_ratio(*r2, z1, z2) - np.conj(z2))))
    return ConjRational(alpha=alpha, r1_num=r1[0], r1_den=r1[1],
                        r2_num=r2[0], r2_den=r2[1], max_residual=(res1, res2))


# ---------------------------------------------------------------------------
# density of polynomials in L^2(sigma)
# ---------------------------------------------------------------------------

def _torus_moments(measure: ClarkMeasure, S: int) -> np.ndarray:
    """Moment table M[s, t] = integral of zeta1^s zeta2^t, |s|,|t| <= S,
    from the tables of one pass with zeta^-1 = conj(zeta) on the torus
    (the weights are real, so conjugating a table conjugates the powers)."""
    C, X = _moment_tables(measure, S, mixed=True)
    M = np.empty((2 * S + 1, 2 * S + 1), dtype=complex)
    M[:S + 1, :S + 1] = C[::-1, ::-1]      # (-j, -k)
    M[S:, :S + 1] = X[:, ::-1]             # (j, -k)
    M[:S + 1, S:] = np.conj(X[::-1, :])    # (-j, k)
    M[S:, S:] = np.conj(C)                 # (j, k)
    return M


def density_distance(measure: ClarkMeasure, degree: int) -> DensityReport:
    """L^2(sigma) distance from conj(zeta_2) (and conj(zeta_1)) to the span
    of monomials zeta1^a zeta2^b with 0 <= a, b <= degree.

    The Gram of the monomials is assembled from the measure's moment
    table and inverted by a truncated spectral pseudoinverse (cutoff
    SPECTRAL_CUTOFF of the top eigenvalue) — level-set measures make the
    monomials far from independent, so plain solves would be meaningless.
    The verdict is the lines' (the measure's own, else ``detect_lines``),
    not the distances'; the module docstring says why.
    """
    if measure.phi.dim != 2:
        raise ValueError("density_distance needs a two-variable measure")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    D = degree
    S = D + 1
    M = _torus_moments(measure, S)
    mass = float(np.real(M[S, S]))

    idx = np.arange(D + 1)
    aa, bb = [g.ravel() for g in np.meshgrid(idx, idx, indexing="ij")]
    # the normal equations take <m_j, m_i> = conj(G[i, j]) at (i, j), for
    # G[i, j] = <m_i, m_j> the Gram; the two agree only for real moments
    G = np.conj(M[aa[:, None] - aa[None, :] + S,
                  bb[:, None] - bb[None, :] + S])
    lam, U = np.linalg.eigh((G + np.conj(G).T) / 2.0)
    keep = lam > SPECTRAL_CUTOFF * float(lam[-1])

    def dist_to(v):
        y = np.conj(U[:, keep]).T @ v
        proj = float(np.real(np.sum(np.abs(y) ** 2 / lam[keep])))
        return float(np.sqrt(max(0.0, mass - proj)))

    v2 = M[-aa + S, -bb - 1 + S]
    v1 = M[-aa - 1 + S, -bb + S]
    verdict = ("consistent_with_nonunitary"
               if measure.lines or detect_lines(measure.phi, measure.alpha)
               else "consistent_with_unitary")
    return DensityReport(degree=D, distance_zbar2=dist_to(v2),
                         distance_zbar1=dist_to(v1), verdict=verdict)
