"""Contact-order analysis at boundary singularities.

At a singularity (tau, gamma) of phi = q/p, p = q = 0 and grad q =
alpha0 grad p, alpha0 the nontangential value.  So at any other alpha
the level polynomial h = q - alpha p has d/dz2 h != 0 there (where
grad p != 0), and the level set is one analytic branch
zeta2 = gamma + w(zeta1 - tau) through the point.  Its Taylor series is
solved order by order from h and p shifted exactly to the point
(``poly.taylor_shift``), up to 2 n1 n2, the Bezout bound of bidegree
(n1, n2) on the intersection of h = 0 with p = 0, and two integers are
read off it (Bickel, Pascoe and Sola, "Derivatives of rational inner
functions", 2018): the contact order K, the first order at which the
series of two alphas differ, and the vanishing order of the Clark
weight |p| / |d/dz2 h| along the branch, the first order of
p(tau + u, gamma + w(u)) above its rounding.  The two agree, since
h1 - h2 = (alpha2 - alpha1) p.  Nontangential values come in closed
form from the radial Taylor coefficients of q and p at r = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitDegenerate, NonConvergent
from .levelset import SINGULAR_TOL, UNIMODULAR_TOL
from .poly import Rif, taylor_shift
from .util import unimodular_alpha

# a series coefficient below this fraction of its scale is zero: on the
# catalog and on 84 random singular draws at two alpha pairs, branch
# differences below K read at most 3.3e-12 of the larger coefficient and
# p along the branch below its order 1.6e-12 of its rounding floor; at
# the order they read at least 0.49 and 0.13
ORDER_TOL = 1e-6
# two alphas closer than this are one: branch_contact_order compares the
# branches of two distinct level sets
DISTINCT_ALPHA_TOL = 1e-12


@dataclass(frozen=True)
class ContactFit:
    """Vanishing order of the Clark weight along the branch through a
    singularity, W ~ constant * |zeta1 - tau|^K."""

    alpha: complex
    branch: int
    exponent: float
    rounded: int
    constant: float


@dataclass(frozen=True)
class ContactOrder:
    """Vanishing order of g^{alpha1} - g^{alpha2} at a singularity."""

    exponent: float
    rounded: int


@dataclass(frozen=True)
class SingularityReport:
    location: tuple[complex, complex]
    nontangential_value: complex
    fits: tuple[ContactFit, ...]


def _branch_series(phi: Rif, alpha: complex, singularity):
    """Taylor series of the level-set branch through a singularity.

    Returns (w, pcoef, h01): w (2 n1 n2 + 1,) with zeta2 = gamma +
    sum_k w_k u^k at zeta1 = tau + u, p's coefficients shifted to the
    point, and d/dz2 h there.  The coefficient of u^k in h(tau + u,
    gamma + w(u)) is h01 w_k plus terms in w_1 .. w_{k-1}, so each w_k
    takes one composition.  ValueError when p does not vanish at the
    point to SINGULAR_TOL of its scale; FitDegenerate when d/dz2 h does
    (alpha = alpha0, or grad p = 0: no single analytic branch).
    """
    if phi.dim != 2:
        raise ValueError("contact orders are for two-variable functions")
    point = (complex(singularity[0]), complex(singularity[1]))
    pcoef = taylor_shift(phi._den_full, point)
    if abs(pcoef[0, 0]) > SINGULAR_TOL * phi.den.coefficient_scale():
        raise ValueError(f"p does not vanish at ({point[0]:.6g}, "
                         f"{point[1]:.6g}); it is not a singularity")
    hcoef = phi.level_coeffs(unimodular_alpha(alpha))
    hs = taylor_shift(hcoef, point)
    h01 = hs[0, 1]
    if abs(h01) <= SINGULAR_TOL * np.sum(np.abs(hcoef)):
        raise FitDegenerate(
            f"d/dz2 h vanishes at the singularity: alpha={alpha:.6g} is "
            "exceptional there; pick a generic value")
    n1, n2 = phi.degrees
    w = np.zeros(2 * n1 * n2 + 1, dtype=complex)
    for k in range(1, len(w)):
        w[k] = -_compose(hs, w[:k + 1])[k] / h01
    return w, pcoef, h01


def _compose(coeffs, w):
    """Coefficients in u of f(u, w(u)) to the length of w, f with the
    coefficient tensor ``coeffs``: Horner in the second variable."""
    n = len(w)
    rows = np.zeros((n, coeffs.shape[1]), dtype=coeffs.dtype)
    rows[:len(coeffs)] = coeffs[:n]
    acc = rows[:, -1]
    for j in range(coeffs.shape[1] - 2, -1, -1):
        acc = np.convolve(acc, w)[:n] + rows[:, j]
    return acc


def _first_order(live, what: str) -> int:
    """The first order k >= 1 flagged in ``live``; FitDegenerate when
    none is, up to the Bezout bound."""
    k = np.flatnonzero(live[1:])
    if not k.size:
        raise FitDegenerate(
            f"{what} vanishes to the Bezout bound {len(live) - 1}")
    return int(k[0]) + 1


def weight_vanish_order(phi: Rif, alpha: complex, singularity) -> ContactFit:
    """Vanishing order of the Clark weight along the branch at a singularity.

    The weight |p| / |d/dz2 h| vanishes like |P_K| / |h01| d^K at chord
    distance d = |zeta1 - tau|, with P_K the first coefficient of
    p(tau + u, gamma + w(u)) above ORDER_TOL of the same composition
    over coefficient moduli (its rounding floor), and h01 = d/dz2 h at
    the point (``_branch_series``).  Only one branch passes through the
    point, so ``branch`` is 0.  Weights read from a built measure follow
    this decay only down to d ~ eps^(1/K): there |p| at the atom sinks
    to the rounding of its slice rows, eps times p's coefficient scale.
    For the K = 4 RIF (``catalog.contact_four_rif``) they hold their
    relative accuracy down to d = 2^-10 and have lost it by 2^-12.
    """
    w, pcoef, h01 = _branch_series(phi, alpha, singularity)
    along = _compose(pcoef, w)
    floor = _compose(np.abs(pcoef), np.abs(w))
    k = _first_order(np.abs(along) > ORDER_TOL * floor, "p along the branch")
    return ContactFit(alpha=complex(alpha), branch=0, exponent=float(k),
                      rounded=k, constant=float(abs(along[k]) / abs(h01)))


def branch_contact_order(phi: Rif, singularity, alpha1: complex,
                         alpha2: complex) -> ContactOrder:
    """Vanishing order K of g^{alpha1} - g^{alpha2} at a singularity.

    Both alphas must be distinct and generic at the point.  K is the
    first order at which the two branch series (``_branch_series``)
    differ by more than ORDER_TOL of the larger coefficient; two exact
    zeros are equal.
    """
    if abs(complex(alpha1) - complex(alpha2)) < DISTINCT_ALPHA_TOL:
        raise ValueError("branch_contact_order needs two distinct alphas")
    w1, w2 = (_branch_series(phi, a, singularity)[0] for a in (alpha1, alpha2))
    k = _first_order(np.abs(w1 - w2)
                     > ORDER_TOL * np.maximum(np.abs(w1), np.abs(w2)),
                     "the branch difference")
    return ContactOrder(exponent=float(k), rounded=k)


def nontangential_value(phi: Rif, point) -> complex:
    """Nontangential (radial) limit of a Rif at a boundary point, in any
    dimension, in closed form (``_radial_limit``).

    NonConvergent when the limit is not unimodular within UNIMODULAR_TOL (no
    nontangential value exists there); TypeError for anything but a
    Rif.  The value returned is projected onto the circle,
    limit / |limit|.
    """
    if not isinstance(phi, Rif):
        raise TypeError(f"nontangential_value needs a Rif, got "
                        f"{type(phi).__name__}")
    best = _radial_limit(phi, np.asarray(point, dtype=complex))
    if abs(abs(best) - 1.0) > UNIMODULAR_TOL:
        raise NonConvergent(
            f"radial limit {best:.8g} is not unimodular; no nontangential "
            "value")
    return complex(best) / abs(best)


def _radial_limit(phi: Rif, tau) -> complex:
    """lim phi(r tau) as r -> 1 from the radial polynomials P(r) = p(r tau)
    and Q(r) = q(r tau), their coefficients summed by total degree.

    Both are Taylor-shifted exactly to r = 1 + s, and the limit is
    Q_k / P_k at the first k with |P_k| above levelset.SINGULAR_TOL of
    p's coefficient scale: phi(tau) at a regular point (k = 0), the ratio
    of radial derivatives at a boundary singularity (Bickel, Pascoe and
    Sola, "Derivatives of rational inner functions", 2018), and of higher
    ones where those vanish too, as for the square of a RIF.
    """
    if len(tau) != phi.dim:
        raise ValueError(f"expected {phi.dim} coordinates, got {len(tau)}")
    big_p, big_q = (taylor_shift(_radial_coeffs(f.coeffs, tau), (1.0,))
                    for f in (phi.den, phi.num))
    live = np.flatnonzero(np.abs(big_p)
                          > SINGULAR_TOL * phi.den.coefficient_scale())
    if not live.size:
        raise NonConvergent("p vanishes along the radius")
    k = live[0]
    return complex(big_q[k] / big_p[k]) + 0.0  # + 0.0: no -0.0 imaginary part


def _radial_coeffs(coeffs, tau):
    """Coefficients in r of r -> f(r tau), f's coefficient tensor summed
    over each total degree."""
    terms = coeffs.astype(complex)
    for a, t in enumerate(tau):
        shape = [1] * coeffs.ndim
        shape[a] = -1
        terms = terms * (t ** np.arange(coeffs.shape[a])).reshape(shape)
    total = sum(np.indices(coeffs.shape))
    out = np.zeros(sum(coeffs.shape) - coeffs.ndim + 1, dtype=complex)
    np.add.at(out, total.ravel(), terms.ravel())
    return out


def contact_report(phi: Rif, singularity, alphas) -> SingularityReport:
    """Bundle the nontangential value and the weight order at each alpha
    at a singularity; an alpha exceptional at the point is left out."""
    tau, gamma = (complex(singularity[0]), complex(singularity[1]))
    nt = nontangential_value(phi, (tau, gamma))
    fits = []
    for a in alphas:
        try:
            fits.append(weight_vanish_order(phi, a, (tau, gamma)))
        except FitDegenerate:
            continue
    return SingularityReport(location=(tau, gamma), nontangential_value=nt,
                             fits=tuple(fits))
