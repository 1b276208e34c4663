"""Unimodular level sets of rational inner functions on the bidisk.

For a RIF phi = q/p of bidegree (m, n) and unimodular alpha, the level
set { zeta on the 2-torus : phi*(zeta) = alpha } is cut out by the level
polynomial h = q - alpha * p.  Away from finitely many exceptional alpha
it is the union of n graphs zeta2 = g_j(zeta1) over the circle; at
exceptional alpha whole lines { tau } x T or T x { tau } join in.

Each slice phi(zeta1, .) is a finite Blaschke product whose argument
rises monotonically by 2 pi n, so a root's branch label is the count j
in arg b = arg alpha + 2 pi j, taken from the phase of phi(zeta1, w_ref)
lifted along a path (``_phase_labels``); no root is matched to its
neighbours.  ``trace_branches`` labels the atoms of the measure's own
build (``clark._build2``, its slices solved by the kernel
``poly._atom_blocks``), for the outputs where labels are the point, such
as the CSV export.  The module locates the boundary singularities of
phi, the common torus zeros of p and p~, from the zeros of one resultant
on the circle (``find_singularities``), and it decides the line
components at those points: a line {tau1} x T passes through torus
zeros of p, where its slice of h is (alpha0 - alpha) p(tau1, .), so each
root tau1 of h(., 0) on the circle is tested there, once, with one
tolerance (``_lines``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PhaseLabelFailure
from .poly import (
    PolyMD,
    Rif,
    companion_roots,
    derivative_coeffs,
    reflect,
    slice_coeffs,
    _newton_polish,
    _polyval_rows,
)
from .util import (TWO_PI, angular_distance, grid_shift, unimodular_alpha,
                   unit_roots)

# largest | |z| - 1 | of a computed root or limit read as on the circle:
# about 70 times the sqrt(eps) by which rounding can split a double root
UNIMODULAR_TOL = 1e-6
# h's slice at a torus zero of p below this of h's scale: a line.  Linear
# in alpha - alpha0, it keeps fav's and squared's lines within ~3e-9 of
# exceptional; where the polish keeps its seed it can read flatter:
# contact_four_rif's, at alpha = e^{i pi (1 + delta)}, reads ~delta^4
# (1.5e-12 at delta = 1e-3), and keeps its line up to |delta| ~ 9e-3
LINE_TOL = 1e-8
# |p| below this times its coefficient scale: a zero of p on the torus (the
# catalog's polished zeros and 90 random singular draws' read <= 3.0e-16)
SINGULAR_TOL = 1e-10
# distance from the circle of the resultant and slice roots that seed
# find_singularities; the polish, not the seed, sets the accuracy
SEED_BAND = 0.05
POLISH_STEPS = 16  # secant steps of _polish_on_torus, at most
# a secant polish of a torus zero whose last step in arg z1 exceeds this
# has not converged, and the point keeps its seed
POLISH_STEP_TOL = 1e-9
# polished torus zeros whose angles differ by at most this in sum are one
# singularity, reached from several seeds
SAME_SINGULARITY_TOL = 1e-6
# find_singularities' least angle for grouping resultant roots into one
# seed: far above the rounding spread of a double root, eps^(1/2) ~ 1.5e-8
SEED_WINDOW = 1e-3
# first secant step in arg z1 of _polish_on_torus: far enough off the seed
# that the slope difference it measures is not rounding
SECANT_FIRST_STEP = 1e-7
# _ccw_angle's sort key: angles less than ANGLE_KEY_OFFSET below 0 count as
# 0 (a computed 1 - 3e-16j), and ones equal to ANGLE_KEY_DIGITS decimals tie
ANGLE_KEY_OFFSET, ANGLE_KEY_DIGITS = 1e-12, 9
# reference circles zeta2 = w_ref of the phase labels, tried in order: a
# circle through a singularity on the path (fav's zeta2 = 1) gives no phase
_REF_CIRCLES = (np.exp(0.373j), np.exp(2.419j), np.exp(4.297j))


@dataclass
class Branch:
    """One labeled graph zeta2 = g(zeta1) of a level set.

    ``theta`` holds the angles of the measure's zeta1 nodes, in the order
    trace_branches gives them, ``values`` the unimodular samples
    g(e^{i theta}), ``weights`` the Clark branch weight at each node;
    ``grid_n`` counts the nodes, the CSV rows (N = ... in its header),
    which a clustered rule makes a multiple of the build's grid_n.
    Labels are phase counts mod n (``_phase_labels``), exact at
    every node and across the wrap: past theta = 2 pi, branch
    (b + deg_z1) mod n continues as branch b.  A horizontal line
    T x {tau} puts the root tau in every slice, and at a vertical line
    the phase levels pass through the whole slice, so the horizontal-line
    branches swap labels across it: for squared at alpha = -1, branch 0
    is zeta2 = 1 before theta = pi and zeta2 = -1 after it.
    """

    alpha: complex
    theta: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def grid_n(self) -> int:
        return len(self.theta)


@dataclass(frozen=True)
class LineComponent:
    """A full line { tau } x T (axis 1) or T x { tau } (axis 2) in a level set."""

    axis: int
    tau: complex
    constant: float


# ---------------------------------------------------------------------------
# branch labels
# ---------------------------------------------------------------------------

def _phase_labels(phi: Rif, alpha: complex, zeta1, roots):
    """Branch label in 0..k-1 of each slice root (k, m) over the closed
    path of zeta1 nodes (m,) once around the circle.

    Each slice b = phi(zeta1, .) is a finite Blaschke product whose
    argument rises monotonically by 2 pi k around the circle, so its
    roots of b = alpha, counterclockwise from a point w_ref, are where
    the argument, lifted from L = arg(b(w_ref) / alpha), crosses
    2 pi (floor(L / 2 pi) + 1), the next multiple, and so on.  With L
    lifted along the path each root keeps its count mod k as it moves,
    so no root is matched to another.  w_ref is the first of
    _REF_CIRCLES whose L steps by a finite amount below pi/2 at every
    node (the circle misses the singularities on the path, and the path
    resolves its phase) and gains 2 pi deg_z1 in the turn;
    PhaseLabelFailure when none does.
    """
    for w_ref in _REF_CIRCLES:
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 fails
            ratio = phi(zeta1, w_ref) / alpha
            ring = np.append(ratio, ratio[0])
            steps = np.angle(ring[1:] / ring[:-1])
        resolved = np.all(np.abs(steps) < np.pi / 2)  # NaN compares False
        if resolved and round(steps.sum() / TWO_PI) == phi.degrees[0]:
            break
    else:
        raise PhaseLabelFailure(
            "no reference circle resolves the phase of phi(zeta1, w_ref) "
            "along the path")
    lift = np.cumsum(np.append(np.angle(ratio[0]), steps[:len(ratio) - 1]))
    # rank of each root counterclockwise from w_ref
    rank = np.argsort(np.argsort(np.angle(roots / w_ref) % TWO_PI, axis=0),
                      axis=0)
    return (np.floor(lift / TWO_PI).astype(int) + 1 + rank) % len(roots)


def trace_branches(phi: Rif, alpha: complex,
                   grid_n: int | None = None) -> list[Branch]:
    """Label the graph components of the level set at unimodular alpha.

    The atoms of the measure's own build, ``clark._build2`` at ``grid_n``
    (``clark.DEFAULT_GRID[2]`` if None), the one ``clark.build_measure``
    returns in two variables (so MassGapExceeded wherever the build
    refuses), over its zeta1 nodes ``base[:, 0]``,
    each in the branch of its phase label (``_phase_labels``), weighted
    by its Clark weight |p| / |d/dz2 h|: the measure's weight over the
    rule's quadrature weight of the node, which ``_build2`` returns with
    the measure.  Unclustered, theta is the grid 2 pi k / N + s off
    the vertical lines, in its own order (s = ``util.grid_shift`` of
    their angles, 0 without lines: ``clark._zeta1_rule``'s);
    clustered, it is the angle in [0, 2 pi) of every node of the rule, in
    increasing order.  Branch 0 holds the root of least argument at the
    first node.  Every branch carries alpha projected by
    ``util.unimodular_alpha``.
    """
    from . import clark  # clark imports this module

    if phi.dim != 2:
        raise ValueError("trace_branches expects a two-variable inner function")
    alpha = unimodular_alpha(alpha)
    grid_n = clark.DEFAULT_GRID[2] if grid_n is None else grid_n
    m, quad = clark._build2(phi, alpha, grid_n)
    # unclustered, the grid keeps its order and angles: s may pass a step,
    # and a sort by angle would move the last node to the front
    if len(m.base) == grid_n:
        s = grid_shift([np.angle(ln.tau) for ln in m.lines], grid_n) \
            if m.lines else 0.0
        theta, order = TWO_PI * np.arange(grid_n) / grid_n + s, slice(None)
    else:
        theta = np.angle(m.base[:, 0]) % TWO_PI
        order = np.argsort(theta)
        theta = theta[order]
    zeta1, roots = m.base[order, 0], m.atoms[:, order]
    weights = (m.weights / quad)[:, order]
    labels = _phase_labels(phi, alpha, zeta1, roots)
    labels = (labels - labels[np.argmin(np.angle(roots[:, 0])), 0]) \
        % len(roots)
    at = (labels, np.arange(len(zeta1)))  # each column's labels: a permutation
    values, branch_w = np.empty_like(roots), np.empty_like(weights)
    values[at], branch_w[at] = roots, weights
    return [Branch(alpha=alpha, theta=theta.copy(), values=values[b],
                   weights=branch_w[b]) for b in range(len(roots))]


# ---------------------------------------------------------------------------
# line components
# ---------------------------------------------------------------------------

def detect_lines(phi: Rif, alpha: complex) -> list[LineComponent]:
    """Find every line component of the level set at alpha, both axes.

    Vertical lines ({tau} x T, axis 1) are the canonical line carriers in
    measure construction; horizontal lines, a root zeta2 = tau of every
    slice and so already among a measure's nodes, are reported here with
    axis 2, by the same test on swapped variables (``_lines``), each
    with its constant.  Lines make alpha exceptional; none, generic.
    """
    if phi.dim != 2:
        raise ValueError("detect_lines expects a two-variable inner function")
    h, p = phi.level_coeffs(unimodular_alpha(alpha)), phi.den.coeffs
    return _lines(h, p, 1)[1] + _lines(h.T, p.T, 2)[1]


def _lines(hcoef, pcoef, axis=1):
    """(roots, lines): ``companion_roots`` of h(., 0), NaN after a degree
    drop, and the lines {tau} x T of the level polynomial h = ``hcoef``
    with denominator p = ``pcoef``.

    On a line h(tau, .) vanishes, so tau is a root of h(., 0), and
    p(tau, .) is proportional to its reflection, so its roots lie on the
    circle: the line passes through torus zeros of p, where p = q = 0 and
    its slice of h is (alpha0 - alpha) p(tau, .).  So each root within
    UNIMODULAR_TOL of the circle, Newton-polished and projected onto it,
    seeds the torus zeros over it (``_torus_zeros``) and is a line when
    h's slice at one of them is within LINE_TOL of h's coefficient scale,
    a test linear in alpha - alpha0.  A line keeps its seed as tau, in
    order of angle.  Its constant is 1 / |d phi/d z1| = |p / d/dz1 h|
    there, of one modulus all along the line, so by Parseval the ratio
    of the coefficient norms of the slices p(tau, .) and d/dz1 h(tau, .).
    """
    row = hcoef[:, :1]
    roots = companion_roots(row)[:, 0]
    near = roots[np.abs(np.abs(roots) - 1.0) < UNIMODULAR_TOL]  # NaN: False
    if not near.size:
        return roots, []
    _newton_polish(row, np.max(np.abs(row), axis=0), near[:, None])
    seeds = near / np.abs(near)
    t1, _, seed = _torus_zeros(pcoef, seeds)
    flat = np.max(np.abs(slice_coeffs(hcoef, t1[:, None])), axis=0) \
        <= LINE_TOL * float(np.max(np.abs(hcoef)))
    hit = np.bincount(seed[flat], minlength=len(seeds)) > 0  # each seed once
    taus = np.array(sorted(seeds[hit].tolist(), key=_ccw_angle))
    norms = [np.linalg.norm(slice_coeffs(c, taus[:, None]), axis=0)
             for c in (pcoef, derivative_coeffs(hcoef, 1))]
    return roots, [LineComponent(axis=axis, tau=tau, constant=float(c))
                   for tau, c in zip(taus.tolist(), norms[0] / norms[1])]


# ---------------------------------------------------------------------------
# singularities
# ---------------------------------------------------------------------------

def find_singularities(phi: Rif) -> list[tuple[complex, complex]]:
    """Common boundary zeros of p and its reflection on the 2-torus.

    On the torus p~ = zeta^n conj(p), so these are the torus zeros of p,
    and they are finitely many (Knese, "Polynomials with no zeros on the
    bidisk", 2010).  Each lies over a zero tau1 on the circle of the
    resultant R(z1) = Res_{z2}(p, p~) (``_resultant_coeffs``).  Those
    zeros are of even multiplicity m, 2 n2 at most on the catalog and
    the composed examples, so rounding spreads each into a cluster of
    width about eps^(1 / m), and the roots within SEED_BAND of the
    circle are grouped by angle within max(SEED_WINDOW, 10 eps^(1 / (2 n2))).
    The mean of each group, projected to the circle, seeds tau1, and the
    torus zeros of p over it are polished from there (``_torus_zeros``).
    A repeated factor of p multiplies m, and the wider clusters can hide
    a zero.  A point is kept when |p| <= SINGULAR_TOL of its coefficient
    scale there (on the torus |q| = |p|), and once when several seeds
    reach it.  Sorted by the angles of tau1 and tau2 counterclockwise from 1.
    """
    if phi.dim != 2:
        raise ValueError("find_singularities expects a two-variable function")
    p = phi.den
    res = companion_roots(_resultant_coeffs(p)[:, None])[:, 0]
    eps_root = np.finfo(float).eps ** (0.5 / max(p.degrees[1], 1))
    tau1, _ = _circle_clusters(res, max(SEED_WINDOW, 10.0 * eps_root))
    t1, t2, _ = _torus_zeros(p.coeffs, tau1 / np.abs(tau1))
    keep = np.abs(p(t1, t2)) <= SINGULAR_TOL * p.coefficient_scale()
    found: list[tuple[complex, complex]] = []
    for pt in sorted(zip(t1[keep].tolist(), t2[keep].tolist()),
                     key=lambda pt: (_ccw_angle(pt[0]), _ccw_angle(pt[1]))):
        if all(angular_distance(pt[0], f[0]) + angular_distance(pt[1], f[1])
               > SAME_SINGULARITY_TOL for f in found):
            found.append(pt)
    return found


def _torus_zeros(coeffs, tau1):
    """Torus zeros (t1, t2) of f = ``coeffs`` near the seeds ``tau1`` on
    the circle, and each one's seed index: the roots of f(tau1, .) within
    SEED_BAND of the circle, grouped within 10 eps^(1 / n2), polished
    along their branch (``_polish_on_torus``).  A root of multiplicity m,
    as where f has a repeated factor g^m, is polished on the (m - 1)-th
    z2-derivative of f, of which it is a simple root on the curve g = 0.
    """
    window = 10.0 * np.finfo(float).eps ** (1.0 / max(coeffs.shape[1] - 1, 1))
    cand = []  # (seed index, tau2, multiplicity of the root tau2)
    roots = companion_roots(slice_coeffs(coeffs, tau1[:, None]))
    for i in range(len(tau1)):
        tau2, count = _circle_clusters(roots[:, i], window)
        cand += zip([i] * len(tau2), tau2, count)
    if not cand:
        return np.zeros(0, complex), np.zeros(0, complex), np.zeros(0, int)
    seed, t2, mult = (np.array(c) for c in zip(*cand))
    t1 = tau1[seed]
    for m in range(1, mult.max() + 1):
        at = mult == m
        if at.any():
            t1[at], t2[at] = _polish_on_torus(coeffs, t1[at], t2[at])
        coeffs = derivative_coeffs(coeffs, 2)
    return t1, t2, seed


def _polish_on_torus(coeffs, t1, t2):
    """Polish approximate torus zeros (t1, t2) of the polynomial f with
    coefficient tensor ``coeffs``, t1 on the circle and t2 a simple root
    of f(t1, .); the polished t2 is on the circle.

    Along the curve f = 0, z2 = w(z1), and |w| >= 1 for |z1| = 1 with
    equality at a torus zero, so log|w(e^{i theta})| has a double zero
    there and its derivative h = Im(z1 d1f / (w d2f)) a simple one.
    Secant steps on h in theta = arg z1, with w the root of f(z1, .)
    Newton-polished from the last one (``_newton_polish``, which returns
    d2f there too), locate it to rounding where the resultant's clusters
    leave it off by up to their spread.  The steps stop when none moves
    a point by more than 4 eps; a point whose last step exceeds
    POLISH_STEP_TOL (or that is not finite) keeps its input.
    """
    d1 = derivative_coeffs(coeffs, 1)

    def slope(theta, w):
        z1 = np.exp(1j * theta)
        rows = slice_coeffs(coeffs, z1[:, None])
        w = w[None, :].copy()
        d2f = _newton_polish(rows, np.max(np.abs(rows), axis=0), w)
        w = w[0]
        ratio = z1 * _polyval_rows(slice_coeffs(d1, z1[:, None]), w) \
            / (w * d2f[0])
        return ratio.imag, w

    settled = 4.0 * np.finfo(float).eps
    # a point that runs off to NaN or inf is judged by its last step
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ta = np.angle(t1)
        ha, w = slope(ta, t2)
        tb = ta + SECANT_FIRST_STEP
        for _ in range(POLISH_STEPS):
            hb, w = slope(tb, w)
            dh = hb - ha
            step = np.where(dh != 0.0, -hb * (tb - ta) / np.where(
                dh != 0.0, dh, 1.0), 0.0)
            ta, ha, tb = tb, hb, tb + step
            if not np.any(np.abs(step) > settled):
                break
        _, w = slope(tb, w)
        ok = (np.abs(step) <= POLISH_STEP_TOL) & np.isfinite(w)
        w = np.where(ok, w, t2)
        return np.where(ok, np.exp(1j * tb), t1), w / np.abs(w)


def _resultant_coeffs(p: PolyMD):
    """Coefficients of R(z1) = Res_{z2}(p, p~), p~ the reflection of p at
    its own degrees (n1, n2): Sylvester determinants at the M = 2 n1 n2 + 1
    roots of unity, then fft / M, exact for a degree below M."""
    n1, n2 = p.degrees
    M = 2 * n1 * n2 + 1
    z1 = unit_roots(M)
    rows = (slice_coeffs(p.coeffs, z1[:, None]),
            slice_coeffs(reflect(p).coeffs, z1[:, None]))
    syl = np.zeros((len(z1), 2 * n2, 2 * n2), dtype=complex)
    for k in range(n2):  # rows k and n2 + k: p's and p~'s, shifted by k
        syl[:, k, k:k + n2 + 1] = rows[0].T
        syl[:, n2 + k, k:k + n2 + 1] = rows[1].T
    return np.fft.fft(np.linalg.det(syl)) / len(z1)


def _circle_clusters(roots, window):
    """The groups of ``roots`` (NaN padded) within SEED_BAND of the unit
    circle whose angles lie within ``window`` of each other: the mean of
    each group, in order of angle, and the group sizes."""
    r = roots[~np.isnan(roots)]
    r = r[np.abs(np.abs(r) - 1.0) < SEED_BAND]
    if not r.size:
        return r, np.zeros(0, dtype=int)
    r = r[np.argsort(np.angle(r))]
    ang = np.angle(r)
    cut = np.diff(np.append(ang, ang[0] + TWO_PI)) > window  # after root i
    if cut.any():  # start the groups after the last cut: none wraps
        shift = np.flatnonzero(cut)[-1] + 1
        r, cut = np.roll(r, -shift), np.roll(cut, -shift)
    group = np.concatenate(([0], np.cumsum(cut[:-1])))
    count = np.bincount(group)
    mean = (np.bincount(group, r.real) + 1j * np.bincount(group, r.imag)) \
        / count
    return mean, count


def _ccw_angle(z):
    """Sort key: the angle of z counterclockwise from 1 (ANGLE_KEY_*)."""
    return round((float(np.angle(z)) + ANGLE_KEY_OFFSET) % TWO_PI,
                 ANGLE_KEY_DIGITS)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def branch_csv_lines(branch: Branch, label: str, index: int) -> list[str]:
    a = branch.alpha
    head = (f"# rif={label} alpha={a.real:.17g}{a.imag:+.17g}j "
            f"N={branch.grid_n} branch={index}")
    lines = [head, "theta,re_g,im_g,weight"]
    for t, v, w in zip(branch.theta.tolist(), branch.values.tolist(),
                       branch.weights.tolist()):  # floats format fastest
        lines.append(f"{t:.17g},{v.real:.17g},{v.imag:.17g},{w:.17g}")
    return lines
