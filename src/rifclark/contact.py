"""Contact-order analysis at boundary singularities.

Near a singularity (tau, gamma) the branch weights of a Clark measure
vanish like |zeta - tau|^K for an even integer K, the contact order.
This module estimates K two ways — decay of the weights, and decay of
pairwise differences of level-set branches across two values of alpha —
by least-squares log-log fits over dyadic offsets, and evaluates
nontangential values by Richardson extrapolation along the radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import poly as _poly
from .errors import FitDegenerate, NonConvergent
from .levelset import _solve_slices, assign, detect_lines, weight_parts
from .poly import Rif
from .util import TWO_PI

WEIGHT_FLOOR = 1e-12
R2_MIN = 0.999
SUBSTEPS = 16  # continuation nodes per octave when walking the dyadic ladder


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


def _dyadic_paths(phi: Rif, alpha: complex, tau: complex, gamma: complex,
                  k_lo: int, k_hi: int):
    """Trace every branch through (tau, gamma) along dyadic offsets.

    Walks outward from delta = 2^-k_hi to 2^-k_lo on a geometric ladder
    with SUBSTEPS nodes per octave (continuation by quadratic prediction;
    branches through a common singularity separate only like delta^K, so
    coarse nearest-neighbor stepping would swap labels).  Returns, per
    side, (deltas at dyadic nodes, path values (n_adm, n_dyadic)).
    """
    t0 = float(np.angle(tau))
    n_sub = (k_hi - k_lo) * SUBSTEPS
    i_all = np.arange(n_sub + 1)
    deltas = 2.0 ** (-k_hi + i_all / SUBSTEPS)
    dy_mask = i_all % SUBSTEPS == 0
    out = {}
    for side in (1, -1):
        angles = t0 + side * deltas
        _, roots, zero_rows = _solve_slices(phi.level_coeffs(alpha),
                                            np.exp(1j * angles)[:, None])
        if zero_rows.any():
            raise FitDegenerate(
                "level polynomial vanished on a slice near the singularity "
                "(alpha is exceptional)")
        adm = roots[0][np.abs(roots[0] - gamma) < 1e-3]
        if not adm.size:
            raise ValueError(
                f"no branch passes through ({tau:.6g}, {gamma:.6g}) at "
                f"alpha={alpha:.6g}")
        adm = adm[np.argsort(np.angle(adm), kind="stable")]
        n_adm = len(adm)
        path = np.empty((n_adm, n_sub + 1), dtype=complex)
        path[:, 0] = adm
        hist = [adm, adm, adm]
        for k in range(1, n_sub + 1):
            pred = 3.0 * hist[-1] - 3.0 * hist[-2] + hist[-3]
            rts = roots[k][~np.isnan(roots[k])]
            ri, ci = assign(np.abs(pred[:, None] - rts[None, :]))
            cur = hist[-1].copy()
            cur[ri] = rts[ci]
            path[:, k] = cur
            hist = [hist[-2], hist[-1], cur]
        out[side] = (deltas[dy_mask], path[:, dy_mask])
    return out


def weight_vanish_order(phi: Rif, alpha: complex, singularity,
                        branch: int | None = None,
                        k_range: tuple[int, int] = (6, 16)) -> ContactFit:
    """Fit the vanishing exponent of a branch weight at a singularity.

    Chord distances d = |zeta - tau| at offsets 2^-k, k over ``k_range``,
    approached from both sides; the fitted slope of log W against log d
    is the exponent, and (c_lower, c_upper) bracket W / d^exponent over
    the points used.  ``branch`` indexes the branches through the
    singularity (ordered by angle of their value); by default the first
    one is fitted.  A poor fit (R^2 < 0.999) raises FitDegenerate —
    the signature of an excluded alpha or a wrong branch.
    """
    tau, gamma = (complex(singularity[0]), complex(singularity[1]))
    k_lo, k_hi = k_range
    paths = _dyadic_paths(phi, alpha, tau, gamma, k_lo, k_hi)
    j = 0 if branch is None else branch
    ds, ws, by_side = [], [], {}
    for side in (1, -1):
        deltas, vals = paths[side]
        if j >= vals.shape[0]:
            raise ValueError(
                f"branch index {j} out of range: {vals.shape[0]} branch(es) "
                "pass through the singularity")
        zeta = np.exp(1j * (float(np.angle(tau)) + side * deltas))
        num, den = weight_parts(phi, alpha, zeta, vals[j])
        w = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.nan)
        d = np.abs(zeta - tau)
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
                         alpha2: complex,
                         k_range: tuple[int, int] = (6, 16)) -> ContactOrder:
    """Maximal vanishing order of g_j^{alpha1} - g_k^{alpha2} at a singularity.

    Both alphas must be distinct and generic.  All branch pairs through
    (tau, gamma) are fitted; the largest exponent is reported, rounded to
    the nearest even integer alongside the raw value.
    """
    if abs(complex(alpha1) - complex(alpha2)) < 1e-12:
        raise ValueError("branch_contact_order needs two distinct alphas")
    for a in (alpha1, alpha2):
        if detect_lines(phi, a):
            raise ValueError(f"alpha={a:.6g} is exceptional; pick generic "
                             "values for contact-order fits")
    tau, gamma = (complex(singularity[0]), complex(singularity[1]))
    k_lo, k_hi = k_range
    p1 = _dyadic_paths(phi, alpha1, tau, gamma, k_lo, k_hi)
    p2 = _dyadic_paths(phi, alpha2, tau, gamma, k_lo, k_hi)
    exps, r2s = [], []
    for side in (1, -1):
        deltas, v1 = p1[side]
        _, v2 = p2[side]
        zeta = np.exp(1j * (float(np.angle(tau)) + side * deltas))
        d = np.abs(zeta - tau)
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


def nontangential_value(phi, point, k_range: tuple[int, int] = (4, 20),
                        tol: float = 1e-8) -> complex:
    """Nontangential (radial) limit of phi at a boundary point.

    Evaluates phi(r * point) at r = 1 - 2^-k and Richardson-extrapolates
    to r = 1.  Accepts any callable of d complex arguments, in particular
    a Rif in any dimension.  Raises NonConvergent when the extrapolation
    table does not settle, or when the settled value is not unimodular
    within 1e-6 (no nontangential value exists there).
    """
    pt = np.asarray(point, dtype=complex)
    k_lo, k_hi = k_range
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
    if best_err > tol * max(1.0, abs(best)):
        raise NonConvergent(
            f"radial extrapolation did not settle (residual {best_err:.2e})")
    if abs(abs(best) - 1.0) > 1e-6:
        raise NonConvergent(
            f"radial limit {best:.8g} is not unimodular; no nontangential "
            "value")
    return complex(best)


def contact_report(phi: Rif, singularity, alphas) -> SingularityReport:
    """Bundle nontangential value and per-alpha weight fits at a singularity."""
    tau, gamma = (complex(singularity[0]), complex(singularity[1]))
    nt = nontangential_value(phi, (tau, gamma))
    fits = []
    for a in alphas:
        paths = _dyadic_paths(phi, a, tau, gamma, 6, 16)
        n_adm = paths[1][1].shape[0]
        for j in range(n_adm):
            try:
                fits.append(weight_vanish_order(phi, a, (tau, gamma),
                                                branch=j))
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
