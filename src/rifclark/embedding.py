"""Finite-rank checks of the Clark embedding into L^2 of a Clark measure.

The embedding sends the deflated reproducing kernel at w to
(1 - alpha * conj(phi(w))) times the Szego product kernel C_w, and is an
isometry on their span.  Whether it is onto is governed by a density
dichotomy: for generic alpha the conjugate coordinates zeta-bar_j agree
with rational functions of zeta on the support (so polynomials are
dense), while line components at exceptional alpha force a positive
distance.  All three facets are checked numerically here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import poly as _poly
from .clark import ClarkMeasure, _moment_tables, _node_blocks
from .errors import DenominatorVanishes
from .levelset import _slice_atoms, _uniform_theta
from .poly import PolyMD, Rif, companion_roots, trim


@dataclass(frozen=True)
class GramReport:
    sample_points: np.ndarray
    gram_model: np.ndarray
    gram_embedded: np.ndarray
    max_abs_error: float


@dataclass(frozen=True)
class DensityReport:
    alpha: complex
    degree: int
    distance_zbar2: float
    distance_zbar1: float
    gram_rank: int
    verdict: str


def _szego(w, z1, z2):
    """Product Szego kernel C_w(z) = prod_t 1/(1 - conj(w_t) z_t)."""
    return 1.0 / ((1.0 - np.conj(w[0]) * z1) * (1.0 - np.conj(w[1]) * z2))


def gram_isometry_check(phi: Rif, alpha: complex, points,
                        measure: ClarkMeasure) -> GramReport:
    """Compare kernel inner products in the model space and in L^2(sigma).

    gram_model[i][j] = (1 - conj(phi(w_i)) phi(w_j)) C_{w_i}(w_j);
    gram_embedded[i][j] integrates the embedded kernels against the
    measure.  For an exact embedding the two agree; the gap measures
    quadrature error.
    """
    w = np.asarray([(complex(a), complex(b)) for a, b in points],
                   dtype=complex)
    if np.any(np.abs(w) >= 1.0):
        raise ValueError("sample points must lie inside the bidisk")
    if abs(complex(alpha) - complex(measure.alpha)) > 1e-9:
        raise ValueError("alpha does not match the measure")
    if measure.phi.dim != 2:
        raise ValueError(
            "gram_isometry_check expects a two-variable inner function")
    M = len(w)
    phw = phi(w[:, 0], w[:, 1])
    cw = 1.0 / ((1.0 - np.conj(w[:, 0])[:, None] * w[None, :, 0])
                * (1.0 - np.conj(w[:, 1])[:, None] * w[None, :, 1]))
    model = (1.0 - np.conj(phw)[:, None] * phw[None, :]) * cw

    prefac = 1.0 - complex(measure.alpha) * np.conj(phw)
    embedded = np.zeros((M, M), dtype=complex)
    for z, wq in _node_blocks(measure):
        F = prefac[:, None] * _szego((w[:, 0][:, None], w[:, 1][:, None]),
                                     z[None, :, 0], z[None, :, 1])
        embedded += (F * wq) @ np.conj(F).T
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
    return GramReport(sample_points=w, gram_model=model,
                      gram_embedded=embedded, max_abs_error=err)


# ---------------------------------------------------------------------------
# conjugate coordinates as rational functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjRational:
    """Rational representatives of conj(zeta1) and conj(zeta2) on the level set.

    Splitting p = p1(z2) + z1 p2(z) and the reflection q = q1(z2) + z1 q2(z)
    by powers of z1, the level relation q = alpha p solves for
    conj(zeta1) = (alpha p2 - q2)/(q1 - alpha p1) on the torus; same with
    the variables exchanged for conj(zeta2).  Both denominators are
    univariate and must be zero-free on the closed disk.
    """

    alpha: complex
    r1_num: PolyMD
    r1_den: PolyMD
    r2_num: PolyMD
    r2_den: PolyMD
    max_residual: tuple[float, float]

    def r1(self, z1, z2):
        return (_poly.eval_poly(self.r1_num, (z1, z2))
                / _poly.eval_poly(self.r1_den, (z1, z2)))

    def r2(self, z1, z2):
        return (_poly.eval_poly(self.r2_num, (z1, z2))
                / _poly.eval_poly(self.r2_den, (z1, z2)))


def _split_axis1(coeffs):
    """p = head(z2) + z1 * tail(z1, z2): return (head, tail) tensors."""
    head = coeffs[0:1, :]
    tail = coeffs[1:, :] if coeffs.shape[0] > 1 else np.zeros((1, coeffs.shape[1]),
                                                              dtype=complex)
    return head, tail


def conj_rational(phi: Rif, alpha: complex,
                  grid_n: int = 512) -> ConjRational:
    """Build the rational functions agreeing with conj(zeta_j) on the level set.

    Raises DenominatorVanishes when a denominator has a root on the
    closed unit disk — the hallmark of an exceptional alpha.  The
    ``max_residual`` field records sup |R_j - conj(zeta_j)| over every
    level-set point above the uniform ``grid_n``-point zeta1 grid as an
    end-to-end consistency check.
    """
    alpha = complex(alpha)
    p = phi.den.coeffs
    q = phi.num.coeffs

    def build(pc, qc):
        p1, p2 = _split_axis1(pc)
        q1, q2 = _split_axis1(qc)
        num = np.zeros(np.maximum(p2.shape, q2.shape), dtype=complex)
        num[: p2.shape[0], : p2.shape[1]] += alpha * p2
        num[: q2.shape[0], : q2.shape[1]] -= q2
        den = np.zeros(max(p1.shape[1], q1.shape[1]), dtype=complex)
        den[: q1.shape[1]] += q1[0]
        den[: p1.shape[1]] -= alpha * p1[0]
        den_t = trim(den)
        if np.max(np.abs(den_t)) < 1e-14:
            raise DenominatorVanishes(
                "conjugate-coordinate denominator is identically zero")
        mods = np.abs(companion_roots(den_t[None, :])[0])
        if np.nanmin(mods, initial=np.inf) <= 1.0 + 1e-9:
            raise DenominatorVanishes(
                f"denominator root of modulus {np.nanmin(mods):.6g} inside "
                "the closed disk (alpha is exceptional)")
        return num, den_t

    n1, d1 = build(p, q)
    n2t, d2t = build(p.T, q.T)
    r1_num = PolyMD(trim(n1))
    r1_den = PolyMD(d1[None, :])  # constant in z1
    r2_num = PolyMD(trim(n2t.T))
    r2_den = PolyMD(d2t[:, None])  # constant in z2

    cr = ConjRational(alpha=alpha, r1_num=r1_num, r1_den=r1_den,
                      r2_num=r2_num, r2_den=r2_den, max_residual=(0.0, 0.0))
    z1 = np.exp(1j * _uniform_theta(grid_n))[:, None]
    z2 = _slice_atoms(phi, alpha, z1)[0]  # NaN past a degree drop
    z1 = np.broadcast_to(z1, z2.shape)
    res1 = float(np.nanmax(np.abs(cr.r1(z1, z2) - np.conj(z1))))
    res2 = float(np.nanmax(np.abs(cr.r2(z1, z2) - np.conj(z2))))
    return ConjRational(alpha=alpha, r1_num=r1_num, r1_den=r1_den,
                        r2_num=r2_num, r2_den=r2_den,
                        max_residual=(res1, res2))


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
    1e-10 of the top eigenvalue) — level-set measures make the monomials
    far from independent, so plain solves would be meaningless.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    D = degree
    S = D + 1
    M = _torus_moments(measure, S)
    mass = float(np.real(M[S, S]))

    idx = np.arange(D + 1)
    aa, bb = [g.ravel() for g in np.meshgrid(idx, idx, indexing="ij")]
    G = M[aa[:, None] - aa[None, :] + S, bb[:, None] - bb[None, :] + S]
    lam, U = np.linalg.eigh((G + np.conj(G).T) / 2.0)
    cutoff = 1e-10 * float(lam[-1])
    keep = lam > cutoff
    rank = int(np.sum(keep))

    def dist_to(v):
        y = np.conj(U[:, keep]).T @ v
        proj = float(np.real(np.sum(np.abs(y) ** 2 / lam[keep])))
        return float(np.sqrt(max(0.0, mass - proj)))

    v2 = M[-aa + S, -bb - 1 + S]
    v1 = M[-aa - 1 + S, -bb + S]
    d2 = dist_to(v2)
    d1 = dist_to(v1)
    if d2 < 0.05:
        verdict = "consistent_with_unitary"
    elif d2 > 0.3:
        verdict = "consistent_with_nonunitary"
    else:
        verdict = "inconclusive"
    return DensityReport(alpha=complex(measure.alpha), degree=D,
                         distance_zbar2=d2, distance_zbar1=d1,
                         gram_rank=rank, verdict=verdict)
