"""Clark structure on the tridisk.

For a RIF in three variables whose denominator is zero-free on the
closed tridisk, the Clark measure at every unimodular alpha is absolutely
continuous over the first two torus coordinates: graphs
zeta3 = g_j(zeta1, zeta2) weighted by 1/|d phi / d z3|.  The general
builder below handles that singularity-free case; the one-parameter
family phi_s = (s z1 z2 z3 - z1 z2 - z1 z3 - z2 z3)/(s - z1 - z2 - z3)
additionally has closed-form level surfaces and weights, which remain
usable at the singular border case s = 3 where the builder must refuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clark import ClarkMeasure, total_mass
from .errors import RootFindFailure, SingularDenominator, UnstableDenominator
from .levelset import _slice_atoms
from .poly import Rif, stability_check
from .util import TWO_PI

__all__ = [
    "build_measure_d", "total_mass_d",
    "tridisk_level", "tridisk_weight", "verify_poisson_d", "PoissonReportD",
    "two_path_witness", "level_surface_rows",
]


def build_measure_d(phi: Rif, alpha: complex,
                    grid_n: int = 256) -> ClarkMeasure:
    """Clark measure of a singularity-free 3-var RIF on a tensor grid.

    Requires the stability certificate to keep a margin off the boundary
    (min slice-root modulus > 1 + 1e-6); denominators with boundary
    zeros — phi_3 at (1,1,1) for instance — are refused, since the
    absolutely-continuous structure formula breaks down there.
    The nodes over each grid point (zeta1, zeta2) are all roots zeta3 of
    its slice from ``levelset._slice_atoms``, as in the 2-variable
    builder.  They are (grid_n**2 * n, 3) with n the degree in z3, listed
    root column by root column and weighted by the tensor trapezoid rule
    times the Clark weight |p| / |d/dz3 (q - alpha p)|.
    """
    if phi.dim != 3:
        raise ValueError("build_measure_d handles exactly three variables")
    if abs(abs(complex(alpha)) - 1.0) > 1e-9:
        raise ValueError("alpha must be unimodular")
    cert = stability_check(phi.den)
    if not cert.is_stable or cert.min_modulus_on_grid <= 1.0 + 1e-6:
        raise UnstableDenominator(
            f"denominator has a zero within {cert.min_modulus_on_grid - 1.0:.3g} "
            "of the closed tridisk boundary; the graph structure formula "
            "does not apply")
    N = grid_n
    theta = TWO_PI * np.arange(N) / N
    zg = np.exp(1j * theta)

    Z1, Z2 = np.meshgrid(zg, zg, indexing="ij")
    pts = np.stack([Z1.ravel(), Z2.ravel()], axis=-1)
    roots, num, den, _ = _slice_atoms(phi, alpha, pts)
    if np.isnan(roots).any():
        raise RootFindFailure(
            "a slice dropped degree; the surface is not a clean cover "
            "of the 2-torus")
    flat = roots.T
    zs = [np.broadcast_to(pts[:, 0], flat.shape),
          np.broadcast_to(pts[:, 1], flat.shape), flat]
    return ClarkMeasure(phi=phi, alpha=complex(alpha), grid_n=N,
                        nodes=np.stack(zs, axis=-1).reshape(-1, 3),
                        weights=(num / den).T.ravel() / (N * N), lines=[])


total_mass_d = total_mass


# ---------------------------------------------------------------------------
# the tridisk family
# ---------------------------------------------------------------------------

def _family_check(s: float):
    s = float(s)
    if s < 3.0:
        raise ValueError("the family needs s >= 3 (inner only there)")
    return s


def tridisk_level(s: float, alpha: complex, zeta1, zeta2):
    """Third coordinate of the alpha-level surface of phi_s over (zeta1, zeta2).

    psi = (alpha s - alpha z1 - alpha z2 + z1 z2) /
          (s z1 z2 - z1 - z2 + alpha); the denominator vanishes only at
    s = 3, alpha = -1, (1, 1), which raises SingularDenominator.
    """
    s = _family_check(s)
    a = complex(alpha)
    z1 = np.asarray(zeta1, dtype=complex)
    z2 = np.asarray(zeta2, dtype=complex)
    den = s * z1 * z2 - z1 - z2 + a
    if np.any(np.abs(den) < 1e-12 * (s + 3.0)):
        raise SingularDenominator(
            "level-surface denominator vanishes (s = 3, alpha = -1 corner)")
    out = (a * s - a * z1 - a * z2 + z1 * z2) / den
    return complex(out) if out.ndim == 0 else out


def tridisk_weight(s: float, alpha: complex, zeta1, zeta2):
    """Closed-form Clark weight W_{s,alpha}(zeta1, zeta2) of the family."""
    s = _family_check(s)
    a = complex(alpha)
    z1 = np.asarray(zeta1, dtype=complex)
    z2 = np.asarray(zeta2, dtype=complex)
    den = s * z1 * z2 - z1 - z2 + a
    if np.any(np.abs(den) < 1e-12 * (s + 3.0)):
        raise SingularDenominator(
            "weight denominator vanishes (s = 3, alpha = -1 corner)")
    num = (s * s * z1 * z2 - s * (z1 * z1 * z2 + z1 * z2 * z2 + z1 + z2)
           + z1 * z1 + z1 * z2 + z2 * z2)
    out = np.abs(num) / np.abs(den) ** 2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PoissonReportD:
    lhs: float
    rhs: float

    @property
    def abs_err(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def rel_err(self) -> float:
        return self.abs_err / abs(self.lhs)


def _poisson1(zeta, z):
    return (1.0 - abs(z) ** 2) / np.abs(zeta - z) ** 2


def verify_poisson_d(s: float, alpha: complex, z,
                     grid_n: int = 512) -> PoissonReportD:
    """Three-variable Poisson identity for phi_s via the closed-form weight.

    The right side integrates W_{s,alpha} * P_z over the 2-torus by the
    tensor trapezoid rule.  For s = 3 the weight loses smoothness at
    (1, 1), so there cells near that corner are re-averaged on an
    8x-refined subgrid.
    """
    s = _family_check(s)
    a = complex(alpha)
    z = np.asarray(z, dtype=complex)
    if z.shape != (3,) or np.any(np.abs(z) >= 1.0):
        raise ValueError("z must be an interior point of the tridisk")

    from .catalog import tridisk_rif
    phi = tridisk_rif(s)
    v = complex(phi(z[0], z[1], z[2]))
    lhs = (1.0 - abs(v) ** 2) / abs(a - v) ** 2

    N = grid_n
    theta = TWO_PI * np.arange(N) / N

    def node_values(t1, t2):
        z1 = np.exp(1j * t1)
        z2 = np.exp(1j * t2)
        w = tridisk_weight(s, a, z1, z2)
        psi = tridisk_level(s, a, z1, z2)
        return w * (_poisson1(z1, z[0]) * _poisson1(z2, z[1])
                    * _poisson1(psi, z[2]))

    T1, T2 = np.meshgrid(theta, theta, indexing="ij")
    vals = node_values(T1, T2)
    rhs = float(np.mean(vals))

    if s == 3.0:
        # swap the coarse estimate of the window around (1, 1) for an
        # 8x-refined one; both window rules are composite trapezoids with
        # matching boundary weights, so the substitution only changes the
        # window's interior quadrature error
        half = 0.5
        dtheta = TWO_PI / N
        k = int(np.ceil(half / dtheta))

        def window_trapz(step):
            g = np.arange(-k * 8, k * 8 + 1, step) * (dtheta / 8.0)
            wq = np.ones(len(g))
            wq[0] = wq[-1] = 0.5
            v = node_values(g[:, None], g[None, :])
            cell = step * dtheta / 8.0
            return float(np.real((wq[:, None] * wq[None, :] * v).sum())) \
                * cell * cell / TWO_PI ** 2

        rhs += window_trapz(1) - window_trapz(8)
    return PoissonReportD(lhs=lhs, rhs=rhs)


def two_path_witness(k_range: tuple[int, int] = (6, 16)) -> tuple[complex, complex, float]:
    """Two-path limits of psi_3^{-1} at (1, 1): the level surface has a jump.

    Along (e^{it}, e^{-it}) the surface coordinate is identically -1;
    along (e^{it}, e^{it}) it tends to +1.  Returns (limit_conj, limit_diag,
    gap) with the limits Richardson-extrapolated in t.
    """
    k_lo, k_hi = k_range
    ts = 2.0 ** -np.arange(k_lo, k_hi + 1)

    def extrapolate(seq):
        T = np.asarray(seq, dtype=complex)
        for j in range(1, len(seq)):
            T = T[1:] + (T[1:] - T[:-1]) / (2.0 ** j - 1.0)
        return complex(T[0])

    conj_path = [tridisk_level(3.0, -1.0, np.exp(1j * t), np.exp(-1j * t))
                 for t in ts]
    diag_path = [tridisk_level(3.0, -1.0, np.exp(1j * t), np.exp(1j * t))
                 for t in ts]
    la = extrapolate(conj_path)
    lb = extrapolate(diag_path)
    return la, lb, abs(la - lb)


def level_surface_rows(s: float, alpha: complex, grid_n: int = 128):
    """Rows (theta1, theta2, arg psi) sampling the level surface."""
    s = _family_check(s)
    theta = TWO_PI * np.arange(grid_n) / grid_n
    T1, T2 = np.meshgrid(theta, theta, indexing="ij")
    psi = tridisk_level(s, complex(alpha), np.exp(1j * T1), np.exp(1j * T2))
    ang = np.angle(psi)
    return np.stack([T1.ravel(), T2.ravel(), ang.ravel()], axis=-1)
