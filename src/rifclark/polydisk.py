"""The tridisk family phi_s = (s z1 z2 z3 - z1 z2 - z1 z3 - z2 z3) /
(s - z1 - z2 - z3): closed-form level surfaces and Clark weights, usable
at the singular border case s = 3 where ``clark.build_measure`` refuses,
and the oracles built on them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import tridisk_rif, tridisk_s
from .clark import _BLOCK_NODES, _poisson_lhs, build_measure, total_mass
from .errors import SingularDenominator
from .levelset import _unimodular_alpha
from .util import TWO_PI, unit_circle_points, unit_roots

__all__ = [
    "build_measure_d", "total_mass_d",
    "tridisk_level", "tridisk_weight", "verify_poisson_d", "PoissonReportD",
    "two_path_witness", "level_surface_rows",
]

WITNESS_K = (6, 16)  # two_path_witness samples t = 2^-k
# verify_poisson_d refines its s = 3 window for |alpha + 1| < WINDOW_DIST *
# N^-0.4.  Over 24 points with |z_j| <= 0.88, the window lowers the median
# error below |alpha + 1| = 1.10, 0.89, 0.65, 0.51, 0.40 and 0.27 at N =
# 128 .. 4096 and raises it above; the rule stays under each of these.
WINDOW_DIST = 7.6
# |den| of the family below this times s + 3, the sum of its coefficient
# moduli, is zero: the s = 3, alpha = -1 corner, which on the torus
# (|den| >= s - 3) only s this close to 3 can reach
FAMILY_DEN_REL_TOL = 1e-12


def build_measure_d(phi, alpha, grid_n=None):
    """``clark.build_measure`` for three variables only."""
    if phi.dim != 3:
        raise ValueError("build_measure_d handles exactly three variables")
    return build_measure(phi, alpha, grid_n)


# clark.total_mass by its tridisk name, read only by the benchmark's tridisk
# builds (bench/workloads.py); it goes once they read clark.total_mass
total_mass_d = total_mass


# ---------------------------------------------------------------------------
# the tridisk family
# ---------------------------------------------------------------------------

def tridisk_level(s: float, alpha: complex, zeta1, zeta2):
    """Third coordinate of the alpha-level surface of phi_s over (zeta1, zeta2).

    psi = (alpha s - alpha z1 - alpha z2 + z1 z2) /
          (s z1 z2 - z1 - z2 + alpha); the denominator vanishes only at
    s = 3, alpha = -1, (1, 1), which raises SingularDenominator.
    """
    out = _family(s, alpha, zeta1, zeta2)[0]
    return complex(out) if out.ndim == 0 else out


def tridisk_weight(s: float, alpha: complex, zeta1, zeta2):
    """Closed-form Clark weight W_{s,alpha}(zeta1, zeta2) of the family."""
    out = _family(s, alpha, zeta1, zeta2)[1]
    return float(out) if out.ndim == 0 else out


def _family(s, alpha, zeta1, zeta2):
    """The level surface psi and the weight W of phi_s over (zeta1, zeta2),
    with their shared denominator formed and checked once; ValueError for
    s or alpha outside the family's range."""
    s, a = tridisk_s(s), _unimodular_alpha(alpha)
    z1 = np.asarray(zeta1, dtype=complex)
    z2 = np.asarray(zeta2, dtype=complex)
    den = s * z1 * z2 - z1 - z2 + a
    _check_family_den(s, den)
    num = (s * s * z1 * z2 - s * (z1 * z1 * z2 + z1 * z2 * z2 + z1 + z2)
           + z1 * z1 + z1 * z2 + z2 * z2)
    return ((a * s - a * z1 - a * z2 + z1 * z2) / den,
            np.abs(num) / np.abs(den) ** 2)


@dataclass(frozen=True)
class PoissonReportD:
    lhs: float
    rhs: float

    @property
    def rel_err(self) -> float:
        return abs(self.lhs - self.rhs) / abs(self.lhs)


def _poisson1(zeta, z):
    return (1.0 - abs(z) ** 2) / np.abs(zeta - z) ** 2


def _check_family_den(s, den):
    if np.any(np.abs(den) < FAMILY_DEN_REL_TOL * (s + 3.0)):
        raise SingularDenominator(
            "family denominator vanishes (s = 3, alpha = -1 corner)")


def _poisson_sum(s, a, z, zg, wq):
    """sum over j, k of wq_j wq_k W P(zeta1, z1) P(zeta2, z2) P(psi, z3)
    at zeta1 = zg_j, zeta2 = zg_k on the circle, psi and W those of
    phi_s (``_family``).

    With psi = A / den, W P(psi, z3) = (1 - |z3|^2) |num| / |A - z3 den|^2,
    where num = c0 + c1 w + c2 w^2 and lin = A - z3 den = d0 + d1 w are
    polynomials in w = zeta2 with coefficients in zeta1: no psi and no
    complex division.  The coefficients are formed once for every zeta1
    row, and the real and imaginary parts of num and lin are real
    products of their rows (``_real_rows``) with the grid table
    (1, Re w, Im w, Re w^2, Im w^2): sums of the polynomials' own terms,
    which round as Horner's rule does (Higham, "Accuracy and Stability of
    Numerical Algorithms", ch. 5), where expanding |num|^2 and |lin|^2 as
    trigonometric polynomials in w cancels.  |num| and |lin|^2 are sums of
    squares formed in place, with no complex block.  The zeta1 rows go
    2 _BLOCK_NODES // len(zg) at a time (verify_poisson's block), each
    reduced by two products with the weighted Poisson vectors of zeta2 and
    zeta1.  On the torus |den| >= s - 3, so den is checked only next to s = 3.
    """
    p1, p2 = wq * _poisson1(zg, z[0]), wq * _poisson1(zg, z[1])
    z3 = z[2]
    num_rows = _real_rows([zg * (zg - s), zg * (s * s + 1.0 - s * zg) - s,
                           1.0 - s * zg])
    lin_rows = _real_rows([a * (s - zg) - z3 * (a - zg),
                           zg - a - z3 * (s * zg - 1.0)])
    w2 = zg * zg
    table = np.stack([np.ones(len(zg)), zg.real, zg.imag, w2.real, w2.imag])
    rows = max(1, 2 * _BLOCK_NODES // len(zg))
    parts = np.empty((2, 2, rows, len(zg)))  # (re, im) of (num, lin)
    total = 0.0
    for lo in range(0, len(zg), rows):
        if s - 3.0 < FAMILY_DEN_REL_TOL * (s + 3.0):
            z1 = zg[lo:lo + rows, None]
            _check_family_den(s, (s * z1 - 1.0) * zg + (a - z1))
        part = parts[:, :, :len(zg) - lo]
        np.matmul(num_rows[:, lo:lo + rows], table, out=part[:, 0])
        np.matmul(lin_rows[:, lo:lo + rows], table[:3], out=part[:, 1])
        np.square(part, out=part)
        mod, sq = np.add(part[0], part[1], out=part[0])
        np.sqrt(mod, out=mod)
        mod /= sq
        total += p1[lo:lo + rows] @ (mod @ p2)
    return (1.0 - abs(z3) ** 2) * float(total)


def _real_rows(coef):
    """The real rows (2, m, 2 n - 1) of the n complex coefficients
    c_0 .. c_{n-1} of m polynomials in w on the circle, given as n arrays
    (m,): row 0 times (1, Re w, Im w, Re w^2, Im w^2, ...) is the real
    part of sum_j c_j w^j, row 1 times it the imaginary part."""
    c = np.stack(coef, axis=-1)
    out = np.empty((2,) + c.shape[:-1] + (2 * c.shape[-1] - 1,))
    out[0, :, 0], out[1, :, 0] = c[:, 0].real, c[:, 0].imag
    out[0, :, 1::2], out[0, :, 2::2] = c[:, 1:].real, -c[:, 1:].imag
    out[1, :, 1::2], out[1, :, 2::2] = c[:, 1:].imag, c[:, 1:].real
    return out


def verify_poisson_d(s: float, alpha: complex, z,
                     grid_n: int = 512) -> PoissonReportD:
    """Three-variable Poisson identity for phi_s via the closed-form weight.

    The left side is ``clark.verify_poisson``'s at ``catalog.tridisk_rif(s)``,
    which refuses z where phi_s(z) comes within MIN_ALPHA_DIST of alpha.
    The right side integrates W_{s,alpha} * P_z
    over the 2-torus by the tensor trapezoid rule (``_poisson_sum``).
    For s = 3 the weight loses smoothness at (1, 1) and, near alpha = -1,
    peaks there, so for |alpha + 1| < WINDOW_DIST * grid_n^-0.4 cells
    near that corner are re-averaged on an 8x-refined subgrid.
    """
    s = tridisk_s(s)
    a = _unimodular_alpha(alpha)
    (z,), (lhs,) = _poisson_lhs(tridisk_rif(s), a, [z])

    N = grid_n
    rhs = _poisson_sum(s, a, z, unit_roots(N), np.full(N, 1.0 / N))
    if s == 3.0 and abs(a + 1.0) < WINDOW_DIST * N ** -0.4:
        # swap the coarse estimate of the window around (1, 1) for an
        # 8x-refined one; both window rules are composite trapezoids with
        # matching boundary weights, so the substitution only changes the
        # window's interior quadrature error
        dtheta = TWO_PI / N
        k = int(np.ceil(0.5 / dtheta))
        for step, sign in ((1, 1.0), (8, -1.0)):
            g = np.arange(-k * 8, k * 8 + 1, step) * (dtheta / 8.0)
            wq = np.full(len(g), step * dtheta / 8.0 / TWO_PI)
            wq[0] = wq[-1] = 0.5 * wq[0]
            rhs += sign * _poisson_sum(s, a, z, unit_circle_points(g), wq)
    return PoissonReportD(lhs=float(lhs), rhs=float(rhs))


def two_path_witness() -> tuple[complex, complex, float]:
    """Two-path limits of psi_3^{-1} at (1, 1): the level surface has a jump.

    Along (e^{it}, e^{-it}) the surface coordinate is identically -1;
    along (e^{it}, e^{it}) it tends to +1.  Returns (limit_conj, limit_diag,
    gap) with the limits Richardson-extrapolated from t = 2^-k, k over
    WITNESS_K.
    """
    ts = 2.0 ** -np.arange(WITNESS_K[0], WITNESS_K[1] + 1)

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
    z = unit_roots(grid_n)
    psi = tridisk_level(s, alpha, z[:, None], z[None, :])
    theta = TWO_PI * np.arange(grid_n) / grid_n
    T1, T2 = np.meshgrid(theta, theta, indexing="ij")
    return np.stack([T1.ravel(), T2.ravel(), np.angle(psi).ravel()], axis=-1)
