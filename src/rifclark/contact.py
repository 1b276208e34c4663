"""Contact-order analysis at boundary singularities.

Near a singularity (tau, gamma) the branch weights of a Clark measure
vanish like |zeta - tau|^K for an even integer K, the contact order.
This module estimates K two ways — decay of the weights, and decay of
pairwise differences of level-set branches across two values of alpha —
by least-squares log-log fits over dyadic offsets, and evaluates
nontangential values: for a Rif in closed form, from the radial Taylor
coefficients of q and p at r = 1, and for any other callable by
Richardson extrapolation along the radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitDegenerate, NonConvergent
from .levelset import SINGULAR_TOL, _phase_labels, _slice_atoms, detect_lines
from .poly import Rif

WEIGHT_FLOOR = 1e-12
R2_MIN = 0.999
# ladder nodes per octave: the phase that labels the branches
# (levelset._phase_labels) must turn by less than pi/2 from node to node
SUBSTEPS = 16
K_RANGE = (6, 16)  # the ladder's offsets 2^-k
RICHARDSON_K = (4, 20)  # radii 1 - 2^-k of the extrapolated limit
RICHARDSON_TOL = 1e-8  # relative settling of the extrapolation table


@dataclass(frozen=True)
class ContactFit:
    """Log-log fit W ~ const * |zeta - tau|^K along one branch."""

    alpha: complex
    branch: int
    exponent: float
    rounded: int
    c_lower: float
    c_upper: float
    r_squared: float
    n_points: int
    side_exponents: tuple[float, float]


@dataclass(frozen=True)
class ContactOrder:
    """Maximal vanishing order of pairwise branch differences."""

    alpha_pair: tuple[complex, complex]
    exponent: float
    rounded: int
    r_squared: float
    pair_exponents: tuple[float, ...]


@dataclass(frozen=True)
class SingularityReport:
    location: tuple[complex, complex]
    nontangential_value: complex
    fits: tuple[ContactFit, ...]


def _dyadic_paths(phi: Rif, alpha: complex, tau: complex, gamma: complex):
    """Follow every branch through (tau, gamma) along dyadic offsets.

    The slice atoms (``levelset._slice_atoms``) over a geometric ladder
    from delta = 2^-k_hi to 2^-k_lo, k over K_RANGE, SUBSTEPS nodes per
    octave, on each side of tau carry their phase labels
    (``levelset._phase_labels``); the branches are those of the roots
    within 1e-3 of gamma at the innermost node, ordered by angle there,
    and each is followed by its label.  Branches through a common
    singularity separate only like delta^K, which no matching by
    distance resolves, but the labels hold however close the roots come.
    Returns, per side, (chord distances |zeta1 - tau| at the dyadic
    nodes, the polished roots (n_adm, n_dyadic) of each admitted branch
    there, their weights num / den (n_adm, n_dyadic), NaN where den = 0).
    """
    t0 = float(np.angle(tau))
    k_lo, k_hi = K_RANGE
    i_all = np.arange((k_hi - k_lo) * SUBSTEPS + 1)
    deltas = 2.0 ** (-k_hi + i_all / SUBSTEPS)
    dy_mask = i_all % SUBSTEPS == 0
    out = {}
    for side in (1, -1):
        zeta1 = np.exp(1j * (t0 + side * deltas))
        roots, num, den, zero_rows = _slice_atoms(phi, alpha, zeta1[:, None])
        if zero_rows.any():
            raise FitDegenerate(
                "level polynomial vanished on a slice near the singularity "
                "(alpha is exceptional)")
        near = np.flatnonzero(np.abs(roots[:, 0] - gamma) < 1e-3)
        if not near.size:
            raise ValueError(
                f"no branch passes through ({tau:.6g}, {gamma:.6g}) at "
                f"alpha={alpha:.6g}")
        labels = _phase_labels(phi, alpha, zeta1, roots,
                               closed=False)[:, dy_mask]
        adm = labels[near[np.argsort(np.angle(roots[near, 0]),
                                     kind="stable")], 0]
        # the row of each admitted label at every dyadic node
        at = np.argsort(labels, axis=0)[adm]
        weights = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.nan)
        out[side] = (np.abs(zeta1[dy_mask] - tau),
                     np.take_along_axis(roots[:, dy_mask], at, axis=0),
                     np.take_along_axis(weights[:, dy_mask], at, axis=0))
    return out


def weight_vanish_order(phi: Rif, alpha: complex, singularity) -> ContactFit:
    """Fit the vanishing exponent of a branch weight at a singularity.

    Chord distances d = |zeta - tau| at offsets 2^-k, k over K_RANGE,
    approached from both sides; the fitted slope of log W against log d
    is the exponent, and (c_lower, c_upper) bracket W / d^exponent over
    the points used.  The branch fitted is the first through the
    singularity, in order of the angle of its value (``contact_report``
    fits them all).  A poor fit (R^2 < 0.999) raises FitDegenerate —
    the signature of an excluded alpha or a wrong branch.
    """
    tau, gamma = (complex(singularity[0]), complex(singularity[1]))
    return _weight_fit(alpha, _dyadic_paths(phi, alpha, tau, gamma), 0)


def _weight_fit(alpha: complex, paths, j: int) -> ContactFit:
    """weight_vanish_order's fit of branch ``j`` of ``paths``, the
    ``_dyadic_paths`` ladder at ``alpha``."""
    ds, ws, by_side = [], [], {}
    for side in (1, -1):
        d, _, weights = paths[side]
        if j >= len(weights):
            raise ValueError(
                f"branch index {j} out of range: {len(weights)} branch(es) "
                "pass through the singularity")
        w = weights[j]
        keep = np.isfinite(w) & (w > WEIGHT_FLOOR)
        ds.append(d[keep])
        ws.append(w[keep])
        if keep.sum() >= 3:
            s, *_ = _loglog_fit(d[keep], w[keep])
            by_side[side] = s
    d = np.concatenate(ds)
    w = np.concatenate(ws)
    if len(d) < 8:
        raise FitDegenerate(
            f"only {len(d)} usable weight samples above the floor")
    slope, _icept, r2 = _loglog_fit(d, w)
    if r2 < R2_MIN:
        raise FitDegenerate(
            f"log-log fit R^2 = {r2:.6f} < {R2_MIN}; alpha may be excluded "
            "for this singularity")
    ratio = w / d ** slope
    return ContactFit(
        alpha=complex(alpha),
        branch=j,
        exponent=float(slope),
        rounded=2 * int(round(slope / 2.0)),
        c_lower=float(np.min(ratio)),
        c_upper=float(np.max(ratio)),
        r_squared=float(r2),
        n_points=int(len(d)),
        side_exponents=(float(by_side.get(1, np.nan)),
                        float(by_side.get(-1, np.nan))),
    )


def _loglog_fit(d, w):
    x = np.log(d)
    y = np.log(w)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fit = A @ coef
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(coef[0]), float(coef[1]), r2


def branch_contact_order(phi: Rif, singularity, alpha1: complex,
                         alpha2: complex) -> ContactOrder:
    """Maximal vanishing order of g_j^{alpha1} - g_k^{alpha2} at a singularity.

    Both alphas must be distinct and generic.  All branch pairs through
    (tau, gamma) are fitted over the ``_dyadic_paths`` ladders; the
    largest exponent is reported, rounded to the nearest even integer
    alongside the raw value.
    """
    if abs(complex(alpha1) - complex(alpha2)) < 1e-12:
        raise ValueError("branch_contact_order needs two distinct alphas")
    for a in (alpha1, alpha2):
        if detect_lines(phi, a):
            raise ValueError(f"alpha={a:.6g} is exceptional; pick generic "
                             "values for contact-order fits")
    tau, gamma = (complex(singularity[0]), complex(singularity[1]))
    p1 = _dyadic_paths(phi, alpha1, tau, gamma)
    p2 = _dyadic_paths(phi, alpha2, tau, gamma)
    exps, r2s = [], []
    for side in (1, -1):
        d, v1, _ = p1[side]
        v2 = p2[side][1]
        for j in range(v1.shape[0]):
            for k in range(v2.shape[0]):
                diff = np.abs(v1[j] - v2[k])
                keep = diff > 1e-13
                if keep.sum() < 8:
                    continue
                s, _i, r2 = _loglog_fit(d[keep], diff[keep])
                exps.append(s)
                r2s.append(r2)
    if not exps:
        raise FitDegenerate("no usable branch-difference samples")
    best = int(np.argmax(exps))
    if r2s[best] < R2_MIN:
        raise FitDegenerate(
            f"branch-difference fit R^2 = {r2s[best]:.6f} < {R2_MIN}")
    K = exps[best]
    return ContactOrder(
        alpha_pair=(complex(alpha1), complex(alpha2)),
        exponent=float(K),
        rounded=2 * int(round(K / 2.0)),
        r_squared=float(r2s[best]),
        pair_exponents=tuple(float(e) for e in exps),
    )


def nontangential_value(phi, point) -> complex:
    """Nontangential (radial) limit of phi at a boundary point.

    For a Rif, in any dimension, the limit in closed form
    (``_radial_limit``).  Any other callable of d complex arguments is
    evaluated at r * point, r = 1 - 2^-k over RICHARDSON_K, and
    Richardson-extrapolated to r = 1; NonConvergent when the
    extrapolation table does not settle to RICHARDSON_TOL.  Either way
    NonConvergent when the limit is not unimodular within 1e-6 (no
    nontangential value exists there).  The value returned is projected
    onto the circle, limit / |limit|.
    """
    pt = np.asarray(point, dtype=complex)
    if isinstance(phi, Rif):
        best = _radial_limit(phi, pt)
    else:
        best = _richardson_limit(phi, pt)
    if abs(abs(best) - 1.0) > 1e-6:
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
    big_p, big_q = (_shift_to_one(_radial_coeffs(f.coeffs, tau))
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


def _shift_to_one(c):
    """Coefficients in s of the polynomial with coefficients c in r, at
    r = 1 + s: c'_m = sum_k C(k, m) c_k with exact binomials."""
    n = len(c)
    binom = np.array([[math.comb(k, m) for k in range(n)] for m in range(n)],
                     dtype=float)
    return binom @ c


def _richardson_limit(phi, pt) -> complex:
    """Richardson extrapolation of phi(r pt) at geometric nodes
    r = 1 - 2^-k, k over RICHARDSON_K, to r = 1."""
    k_lo, k_hi = RICHARDSON_K
    ks = np.arange(k_lo, k_hi + 1)
    vals = np.array([complex(phi(*(1.0 - 2.0 ** -float(k)) * pt))
                     for k in ks])
    # geometric-node Richardson: T[i,j] from nodes 1 - 2^-k
    T = [vals]
    best = vals[-1]
    best_err = np.inf
    for j in range(1, len(vals)):
        prev = T[-1]
        cur = prev[1:] + (prev[1:] - prev[:-1]) / (2.0 ** j - 1.0)
        T.append(cur)
        err = abs(cur[-1] - prev[-1])
        if err < best_err:
            best_err = err
            best = cur[-1]
    if best_err > RICHARDSON_TOL * max(1.0, abs(best)):
        raise NonConvergent(
            f"radial extrapolation did not settle (residual {best_err:.2e})")
    return complex(best)


def contact_report(phi: Rif, singularity, alphas) -> SingularityReport:
    """Bundle nontangential value and per-alpha weight fits at a singularity."""
    tau, gamma = (complex(singularity[0]), complex(singularity[1]))
    nt = nontangential_value(phi, (tau, gamma))
    fits = []
    for a in alphas:
        paths = _dyadic_paths(phi, a, tau, gamma)
        for j in range(len(paths[1][1])):
            try:
                fits.append(_weight_fit(a, paths, j))
            except FitDegenerate:
                continue
    return SingularityReport(location=(tau, gamma), nontangential_value=nt,
                             fits=tuple(fits))


def report_to_obj(report: SingularityReport) -> dict:
    return {
        "location": [complex(report.location[0]), complex(report.location[1])],
        "nontangential_value": complex(report.nontangential_value),
        "fits": [
            {
                "alpha": complex(f.alpha),
                "branch": f.branch,
                "exponent": f.exponent,
                "rounded": f.rounded,
                "c_lower": f.c_lower,
                "c_upper": f.c_upper,
                "r_squared": f.r_squared,
                "n_points": f.n_points,
            }
            for f in report.fits
        ],
    }
