"""Unimodular level sets of rational inner functions on the bidisk.

For a RIF phi = q/p of bidegree (m, n) and unimodular alpha, the level
set { zeta on the 2-torus : phi*(zeta) = alpha } is cut out by the level
polynomial h = q - alpha * p.  Away from finitely many exceptional alpha
it is the union of n graphs zeta2 = g_j(zeta1) over the circle; at
exceptional alpha whole lines { tau } x T or T x { tau } join in.

``_slice_atoms`` is the one unlabeled kernel behind every Clark measure:
all roots of h over a batch of frozen points, Newton-polished, with the
weight parts of each.  ``trace_branches`` labels the graphs over the
uniform grid (nearest-neighbor continuation composed as arrays, serial
matching and collision refinement only at the few flagged steps) for the
outputs where labels are the point, such as the CSV export.  The module
also finds line components and locates boundary singularities of phi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from . import poly as _poly
from .errors import (
    ContinuationCollision,
    IdenticallyZeroSlice,
    NonConstantDerivative,
)
from .poly import PolyMD, Rif, companion_roots, derivative_coeffs, slice_coeffs
from .util import TWO_PI, angular_distance, unit_circle_points

REFINE_FACTOR = 8
COLLISION_LEVELS = 3
# a nearest root this close is never ambiguous, however close the others
TIE_FLOOR = 1e-12
ZERO_SLICE_REL_TOL = 1e-10
UNIMODULAR_TOL = 1e-6
LINE_TEST_POINTS = 8  # line_constant's samples and their relative spread
LINE_SPREAD_TOL = 1e-8
SEED_GRID = 2048  # slices per axis that seed find_singularities


def _polyval_rows(rows, w):
    """Evaluate per-row polynomials: rows (..., k+1) at points w (...,)."""
    acc = rows[..., -1] * np.ones_like(w)
    for k in range(rows.shape[-1] - 2, -1, -1):
        acc = acc * w + rows[..., k]
    return acc


@dataclass
class Branch:
    """One graph component zeta2 = g(zeta1) of a level set.

    ``theta`` holds the uniform grid of trace_branches, ``values`` the
    unimodular samples g(e^{i theta}), ``weights`` the Clark branch
    weight at each node.  ``jump_index`` marks the one grid node where
    branch relabeling across the wrap-around is permitted.
    """

    alpha: complex
    theta: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    jump_index: int | None = None
    filled: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int),
                               repr=False)
    zero_over_zero: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=int), repr=False)

    @property
    def grid_n(self) -> int:
        return len(self.theta)


@dataclass(frozen=True)
class LineComponent:
    """A full line { tau } x T (axis 1) or T x { tau } (axis 2) in a level set."""

    axis: int
    tau: complex
    constant: float


@dataclass(frozen=True)
class AlphaClass:
    kind: str  # "generic" | "exceptional"
    lines: tuple[LineComponent, ...]


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def weight_parts(phi: Rif, alpha: complex, *zeta):
    """Numerator |p| and denominator |d/dz_d (q - alpha p)| of the Clark
    weight at level-set points given by one coordinate array per variable."""
    zs = np.broadcast_arrays(*(np.asarray(z, dtype=complex) for z in zeta))
    num = np.abs(_poly.eval_poly(phi.den, zs))
    hd = derivative_coeffs(phi.level_coeffs(alpha), phi.dim)
    den = np.abs(_poly._eval_tensor(hd, zs))
    return num, den


def _weight_tols(phi: Rif, alpha: complex):
    """Absolute tolerances below which |p| and |d/dz_d h| count as zero."""
    hd = derivative_coeffs(phi.level_coeffs(alpha), phi.dim)
    num_scale = phi.den.coefficient_scale()
    den_scale = float(np.sum(np.abs(hd)))
    return 1e-9 * max(num_scale, 1e-300), 1e-9 * max(den_scale, 1e-300)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def assign(cost):
    """Minimum-total-cost injection for a small (n, m) cost matrix.

    Returns (rows, cols), ascending in rows, pairing min(n, m) rows with
    distinct columns.  When every row's nearest column is distinct, that
    map is optimal and is returned directly; otherwise (only near branch
    collisions) every injection is tried, which suits the few roots of
    one slice.
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    if n > m:
        cols, rows = assign(cost.T)
        order = rows.argsort()
        return rows[order], cols[order]
    rows = np.arange(n)
    near = cost.argmin(axis=1)
    if len(set(near.tolist())) < n:
        cand = np.array(list(permutations(range(m), n)))
        near = cand[cost[rows, cand].sum(axis=1).argmin()]
    return rows, near


def _match_column(ref, roots):
    """Assign roots to branch labels by nearest neighbor.

    Returns (values, ambiguous) where values has one entry per branch
    (NaN when no root could be assigned) and ambiguous flags labels whose
    assignment another root nearly ties.
    """
    roots = roots[~np.isnan(roots)]  # a row of padded slice roots
    n = len(ref)
    out = np.full(n, np.nan + 1j * np.nan, dtype=complex)
    if len(roots) == 0:
        return out, False
    cost = np.abs(ref[:, None] - roots[None, :])
    ri, ci = assign(cost)
    out[ri] = roots[ci]
    # per-pair checks on Python lists: numpy calls cost more than the
    # work at a handful of roots
    table = cost.tolist()
    ambiguous = False
    for r, c in zip(ri.tolist(), ci.tolist()):
        d_self = table[r][c]
        d_alt = min(table[r][:c] + table[r][c + 1:], default=np.inf)
        if d_alt < 2.0 * d_self and d_self > TIE_FLOOR:
            ambiguous = True
    for b in set(range(n)) - set(ri.tolist()):
        # fewer roots than branches: a tangency absorbs a label, so the
        # nearest root is reused; a far "nearest" root means the value
        # is genuinely missing and is left for interpolation
        j = int(cost[b].argmin())
        if cost[b, j] < 0.5:
            out[b] = roots[j]
    return out, ambiguous


def _clean_steps(roots, n_br):
    """Nearest-root maps near[a, i] (root a of row i-1 -> root of row i;
    row L-1 precedes row 0) of padded roots (L, k), and which are clean:
    both rows hold n_br roots, the map is a permutation and no pair is
    ambiguous by _match_column's rule, so _match_column returns it."""
    cur = np.ascontiguousarray(roots.T)  # small axis first: fast reductions
    full = ~np.isnan(cur[:n_br]).any(axis=0) & np.isnan(cur[n_br:]).all(axis=0)
    cur = cur[:n_br]
    dist = np.abs(np.roll(cur, 1, axis=1)[None, :, :] - cur[:, None, :])
    near = dist.argmin(axis=0)
    d_self = np.take_along_axis(dist, near[None], axis=0)[0]
    np.put_along_axis(dist, near[None], np.inf, axis=0)
    ambiguous = (dist.min(axis=0) < 2.0 * d_self) & (d_self > TIE_FLOOR)
    perm = (1 << near).sum(axis=0) == (1 << n_br) - 1
    return near, full & np.roll(full, 1) & perm & ~ambiguous.any(axis=0)


def _continue(roots, n_br, serial):
    """Label padded roots (L, k) along a walk; returns the (n_br, L) values
    and the last ref.  Row 0 and non-clean steps run
    ``serial(i, ref) -> (col, ref)``, row 0 with ref None; a doubling scan
    composes the clean maps, so each clean run is one gather from the row
    before it."""
    ref = None
    near, clean = _clean_steps(roots, n_br)
    clean[0] = False
    comp = np.where(clean, near, np.arange(n_br)[:, None])
    shift = 1
    while shift < len(roots):
        comp[:, shift:] = np.take_along_axis(comp[:, shift:], comp[:, :-shift],
                                             axis=0)
        shift *= 2
    vals = np.empty((n_br, len(roots)), dtype=complex)
    stops = np.append(np.flatnonzero(~clean), len(roots))
    for i, end in zip(stops[:-1].tolist(), stops[1:].tolist()):
        vals[:, i], ref = serial(i, ref)
        if end > i + 1:
            # row i is full: its labels as root indices, pulled back to
            # row 0 through the inverse of the composed map
            idx = (roots[i, None, :n_br] == ref[:, None]).argmax(axis=1)
            idx = np.argsort(comp[:, i])[idx]
            vals[:, i + 1:end] = np.take_along_axis(
                roots[i + 1:end, :n_br].T, comp[idx, i + 1:end], axis=0)
            ref = vals[:, end - 1]
    return vals, ref


def _solve_slices(hcoef, pts):
    """Slice rows, padded roots and zero-slice flags of h over frozen
    points ``pts`` (m, d-1)."""
    rows = slice_coeffs(hcoef, pts)
    scale = float(np.max(np.abs(hcoef)))
    rowmax = np.max(np.abs(rows), axis=-1)
    zero_rows = rowmax < ZERO_SLICE_REL_TOL * scale
    # zero rows are solved as the constant 1: no roots
    roots = companion_roots(np.where(zero_rows[:, None],
                                     np.eye(1, rows.shape[1]), rows))
    return rows, roots, zero_rows


def _slice_atoms(phi: Rif, alpha: complex, pts):
    """Every root of h(zeta', .) over frozen points ``pts`` (m, d-1) with
    its weight parts: (roots, num, den, zero_rows).

    ``roots`` (m, k) holds each slice's Newton-polished roots in its first
    columns and NaN after them (a degree drop, or a zero slice flagged in
    ``zero_rows``); ``num`` and ``den`` are |p| and |d/dz_d h| there, so
    num / den is the mass of each atom of the slice Clark measure.  No
    root is labeled.
    """
    if abs(abs(alpha) - 1.0) > 1e-9:
        raise ValueError("alpha must be unimodular")
    rows, roots, zero_rows = _solve_slices(phi.level_coeffs(alpha), pts)
    _newton_polish(rows, roots.T, zero_rows)
    num, den = weight_parts(phi, alpha, *np.asarray(pts).T[..., None], roots)
    return roots, num, den, zero_rows


def _chain_match(hcoef, ref, theta_lo, theta_hi, level, max_level):
    """Resolve an ambiguous continuation step by refining the interval."""
    mid = theta_lo + (theta_hi - theta_lo) * np.arange(1, REFINE_FACTOR) \
        / REFINE_FACTOR
    _, roots, zero_rows = _solve_slices(hcoef, np.exp(1j * mid)[:, None])
    cur = ref
    for k in range(len(mid)):
        if zero_rows[k]:
            continue
        cur, amb = _match_column(cur, roots[k])
        if amb and level < max_level:
            lo = theta_lo if k == 0 else mid[k - 1]
            cur = _chain_match(hcoef, cur if not np.isnan(cur).any() else ref,
                               lo, mid[k], level + 1, max_level)
        nan = np.isnan(cur)
        cur = np.where(nan, ref, cur)
    return cur


def trace_branches(phi: Rif, alpha: complex,
                   grid_n: int = 4096) -> list[Branch]:
    """Trace the graph components of the level set at unimodular alpha.

    Parameters
    ----------
    phi : Rif
        Two-variable rational inner function.
    alpha : complex
        Unimodular target value.
    grid_n : int
        Number of uniform angle samples; a power of two, at least 256.
    """
    theta = _uniform_theta(grid_n)
    if phi.dim != 2:
        raise ValueError("trace_branches expects a two-variable inner function")
    if abs(abs(alpha) - 1.0) > 1e-9:
        raise ValueError("alpha must be unimodular")
    alpha = complex(alpha)

    n_nodes = len(theta)
    zeta = np.exp(1j * theta)
    hcoef = phi.level_coeffs(alpha)
    rows, roots, zero_rows = _solve_slices(hcoef, zeta[:, None])

    counts = np.count_nonzero(~np.isnan(roots), axis=1)
    n_br = int(counts.max()) if counts.size else 0
    if n_br == 0:
        raise IdenticallyZeroSlice(
            "level polynomial vanished on every sampled slice")
    # seed at the first node carrying the full complement of roots
    seed = int(np.argmax(counts == n_br))

    def serial(j, ref):
        i = (seed + j) % n_nodes
        if j == 0:
            col = roots[i, np.argsort(np.angle(roots[i, :n_br]))]
            return col, col
        if zero_rows[i]:
            return np.nan, ref
        col, ambiguous = _match_column(ref, roots[i])
        if ambiguous and n_br > 1:
            prev = (i - 1) % n_nodes
            col = _chain_match(hcoef, ref, theta[prev], theta[prev]
                               + (theta[i] - theta[prev]) % TWO_PI,
                               1, COLLISION_LEVELS)
            col, still = _match_column(col, roots[i])
            if still:
                gaps = np.abs(col[:, None] - col[None, :])
                np.fill_diagonal(gaps, np.inf)
                if np.min(gaps) > 1e-9:
                    raise ContinuationCollision(
                        f"branches could not be relabeled near theta="
                        f"{theta[i]:.6f}")
        return col, np.where(np.isnan(col), ref, col)

    vals, ref = _continue(np.roll(roots, -seed, axis=0), n_br, serial)
    values = np.roll(vals, seed, axis=1)

    # wrap-around closure: permutation relative to the seed column
    jump: set[int] = set()
    if n_br > 1:
        ri, ci = assign(np.abs(ref[:, None] - values[:, seed][None, :]))
        jump.update(ri[ri != ci].tolist())

    filled = [np.nonzero(np.isnan(values[b]))[0] for b in range(n_br)]
    _fill_missing(values)
    _newton_polish(rows, values, zero_rows)

    num, den = weight_parts(phi, alpha, zeta[None, :], values)
    weights = np.zeros_like(num)
    ok = den > _weight_tols(phi, alpha)[1]
    weights[ok] = num[ok] / den[ok]
    # a vanishing denominator is a 0/0 node on a singularity or a node on
    # a line; extrapolation fills both
    zoz = ~ok
    _extrapolate_weights(weights, zoz)

    return [
        Branch(
            alpha=alpha,
            theta=theta,
            values=values[b].copy(),
            weights=weights[b].copy(),
            jump_index=(seed if b in jump else None),
            filled=filled[b],
            zero_over_zero=np.nonzero(zoz[b])[0],
        )
        for b in range(n_br)
    ]


def _uniform_theta(grid_n):
    """The angles 2 pi k / grid_n of a valid grid size."""
    if grid_n < 256 or grid_n & (grid_n - 1):
        raise ValueError("grid_n must be a power of two, at least 256")
    return unit_circle_points(grid_n)[0]


def _fill_missing(values):
    """Fill NaN nodes per branch by local Lagrange interpolation in the
    node index."""
    n_br, N = values.shape
    for b in range(n_br):
        miss = np.nonzero(np.isnan(values[b]))[0]
        if miss.size == 0:
            continue
        good = np.nonzero(~np.isnan(values[b]))[0]
        for i in miss:
            # four nearest valid nodes on the circle
            d = np.abs((good - i + N // 2) % N - N // 2)
            nb = good[np.argsort(d)[:4]]
            x = ((nb - i + N // 2) % N - N // 2).astype(float)
            y = values[b, nb]
            val = 0.0 + 0.0j
            for a in range(len(nb)):
                la = 1.0
                for c in range(len(nb)):
                    if c != a:
                        la *= (0.0 - x[c]) / (x[a] - x[c])
                val += la * y[a]
            values[b, i] = val / abs(val)


def _newton_polish(rows, values, zero_rows, iters=3):
    """Polish all non-degenerate nodes with a few Newton steps; ``values``
    (k, m) holds k roots of each of the m slice ``rows``."""
    drows = rows[:, 1:] * np.arange(1, rows.shape[1])
    scale = np.max(np.abs(rows), axis=-1)
    live = ~zero_rows if zero_rows.any() else slice(None)  # a mask copies
    for _ in range(iters):
        w = values[:, live]
        f = _polyval_rows(rows[live], w)
        fp = _polyval_rows(drows[live], w)
        guard = np.abs(fp) > 1e-8 * scale[live]
        step = np.where(guard, f / np.where(guard, fp, 1.0), 0.0)
        values[:, live] = w - step


def _extrapolate_weights(weights, zoz):
    """One-sided quadratic extrapolation of flagged (0/0) weight nodes."""
    n_br, N = weights.shape
    for b in range(n_br):
        for i in np.nonzero(zoz[b])[0]:
            for sgn in (-1, 1):
                n1, n2, n3 = ((i + sgn) % N, (i + 2 * sgn) % N,
                              (i + 3 * sgn) % N)
                if not (zoz[b, n1] or zoz[b, n2] or zoz[b, n3]):
                    weights[b, i] = max(
                        0.0,
                        3.0 * weights[b, n1] - 3.0 * weights[b, n2]
                        + weights[b, n3],
                    )
                    break
            else:
                weights[b, i] = 0.0


# ---------------------------------------------------------------------------
# line components
# ---------------------------------------------------------------------------

def line_constant(phi: Rif, alpha: complex, tau: complex,
                  axis: int = 1) -> float:
    """Constant weight of a line component through tau.

    On a line the derivative of phi transversal to it is constant; the
    returned value is 1/|that derivative|, evaluated through the
    cancellation-free ratio (d/dz_axis of the level polynomial) / p at
    LINE_TEST_POINTS points along the line.  Raises NonConstantDerivative
    when the slice at tau is not identically alpha or when the sampled
    ratio is not constant (relative spread above LINE_SPREAD_TOL).
    """
    if phi.dim != 2:
        raise ValueError("line_constant expects a two-variable inner function")
    hcoef = phi.level_coeffs(alpha)
    scale = float(np.max(np.abs(hcoef)))
    other = 2 if axis == 1 else 1
    frozen = np.array([[tau]], dtype=complex)
    sc = slice_coeffs(hcoef, frozen, axis=other)[0]
    if np.max(np.abs(sc)) >= ZERO_SLICE_REL_TOL * scale:
        raise NonConstantDerivative(
            f"slice at tau={tau:.6g} is not identically alpha; "
            "not a line component")
    hd = derivative_coeffs(hcoef, axis)
    # sample points on the line, nudged off any zero of p
    n_test = LINE_TEST_POINTS
    w = np.exp(1j * (TWO_PI * np.arange(n_test) / n_test + 0.373))
    for _ in range(4):
        pts = (np.full(n_test, tau), w) if axis == 1 else (w, np.full(n_test, tau))
        pv = _poly.eval_poly(phi.den, pts)
        if np.min(np.abs(pv)) > 1e-6 * phi.den.coefficient_scale():
            break
        w = w * np.exp(0.19j)
    dv = _poly._eval_tensor(hd, [np.asarray(pts[0], dtype=complex),
                                 np.asarray(pts[1], dtype=complex)])
    ratio = np.abs(dv / pv)
    mean = float(np.mean(ratio))
    spread = np.max(ratio) - np.min(ratio)
    if mean <= 0.0 or spread > LINE_SPREAD_TOL * max(mean, 1.0):
        raise NonConstantDerivative(
            f"transversal derivative varies along the line at tau={tau:.6g}")
    return 1.0 / mean


def detect_lines(phi: Rif, alpha: complex) -> list[LineComponent]:
    """Find every line component of the level set at alpha, both axes.

    Vertical lines ({tau} x T, axis 1) are the canonical line carriers in
    measure construction; horizontal lines, a root zeta2 = tau of every
    slice and so already among a measure's nodes, are reported here with
    axis 2.  Candidate taus lie within UNIMODULAR_TOL of the circle.
    """
    if phi.dim != 2:
        raise ValueError("detect_lines expects a two-variable inner function")
    hcoef = phi.level_coeffs(alpha)
    scale = float(np.max(np.abs(hcoef)))
    out: list[LineComponent] = []
    for axis in (1, 2):
        coef_mat = hcoef if axis == 1 else hcoef.T
        # coefficient polynomials in z_axis of the level polynomial
        cols = [coef_mat[:, k] for k in range(coef_mat.shape[1])]
        nonzero = [c for c in cols if np.max(np.abs(c)) > 1e-12 * scale]
        if not nonzero:
            raise ValueError("level polynomial vanished identically")
        pick = min(nonzero, key=lambda c: len(_poly.trim(c)))
        roots = companion_roots(_poly.trim(pick)[None, :])[0]
        taus = []
        for r in roots[~np.isnan(roots)]:
            if abs(abs(r) - 1.0) >= UNIMODULAR_TOL:
                continue
            tau = _polish_common_root(cols, r, scale)
            if tau is None:
                continue
            if all(angular_distance(tau, t) > 1e-9 for t in taus):
                taus.append(tau)
        for tau in sorted(taus, key=lambda t: float(np.angle(t)) % TWO_PI):
            c = line_constant(phi, alpha, tau, axis=axis)
            out.append(LineComponent(axis=axis, tau=tau, constant=c))
    return out


def _polish_common_root(cols, r, scale):
    """Newton-polish a candidate common root and confirm the full slice dies."""
    best = max(cols, key=lambda c: np.abs(_polyval_rows(
        (c[1:] * np.arange(1, len(c)))[None, :], np.array([r]))[0])
        if len(c) > 1 else 0.0)
    tau = complex(r)
    dc = best[1:] * np.arange(1, len(best))
    for _ in range(8):
        f = _polyval_rows(best[None, :], np.array([tau]))[0]
        fp = _polyval_rows(dc[None, :], np.array([tau]))[0] if len(dc) else 0.0
        if abs(fp) < 1e-14 * scale:
            break
        tau -= f / fp
    tau /= abs(tau)
    resid = max(abs(_polyval_rows(c[None, :], np.array([tau]))[0])
                for c in cols)
    if resid >= ZERO_SLICE_REL_TOL * scale:
        return None
    return tau


def classify_alpha(phi: Rif, alpha: complex) -> AlphaClass:
    """Split alpha into generic (pure graphs) vs exceptional (lines join in)."""
    lines = tuple(detect_lines(phi, alpha))
    return AlphaClass(kind="exceptional" if lines else "generic", lines=lines)


# ---------------------------------------------------------------------------
# singularities
# ---------------------------------------------------------------------------

def find_singularities(phi: Rif) -> list[tuple[complex, complex]]:
    """Common boundary zeros of p and its reflection on the 2-torus.

    Seeds come from slice roots of p over SEED_GRID angles that approach
    the unit circle (plus coarse torus minima of |p|); each seed is
    polished by a damped least-squares Newton iteration on
    (Re p, Im p) = 0 in the two angle variables.  The Jacobian is
    singular at the zeros themselves, so the iteration is run to
    stagnation rather than a fixed count.
    """
    if phi.dim != 2:
        raise ValueError("find_singularities expects a two-variable function")
    p = phi.den
    scale = p.coefficient_scale()
    seeds: list[tuple[float, float]] = []

    _, zg = unit_circle_points(SEED_GRID)
    tg = TWO_PI * np.arange(SEED_GRID) / SEED_GRID
    for axis in (2, 1):
        if 1 in p.coeffs.shape:
            # slices that do not vary, or have no roots, give no seeds
            continue
        rows = slice_coeffs(p.coeffs, zg[:, None], axis=axis)
        roots = companion_roots(rows)
        # per slice, the root nearest the circle (no root: prox inf)
        d = np.where(np.isnan(roots), np.inf, np.abs(np.abs(roots) - 1.0))
        j = np.argmin(d, axis=1)[:, None]
        prox = np.take_along_axis(d, j, axis=1)[:, 0]
        arg = np.angle(np.take_along_axis(roots, j, axis=1)[:, 0]) % TWO_PI
        cand = np.nonzero((prox < 0.05)
                          & (prox <= np.roll(prox, 1))
                          & (prox < np.roll(prox, -1)))[0]
        for i in cand:
            if axis == 2:
                seeds.append((tg[i], arg[i]))
            else:
                seeds.append((arg[i], tg[i]))

    # coarse torus minima of |p| as extra seeds
    gm = 256
    _, zm = unit_circle_points(gm)
    tm = TWO_PI * np.arange(gm) / gm
    vals = np.abs(_poly.eval_poly(p, (zm[:, None], zm[None, :])))
    small = vals < 0.02 * scale
    loc = small & (vals <= np.roll(vals, 1, 0)) & (vals <= np.roll(vals, -1, 0)) \
        & (vals <= np.roll(vals, 1, 1)) & (vals <= np.roll(vals, -1, 1))
    for i, j in zip(*np.nonzero(loc)):
        seeds.append((tm[i], tm[j]))

    found: list[tuple[complex, complex]] = []
    for t1, t2 in seeds:
        pt = _polish_singularity(p, t1, t2, scale)
        if pt is None:
            continue
        if all(angular_distance(pt[0], f[0]) + angular_distance(pt[1], f[1])
               > 1e-6 for f in found):
            q = phi.num
            if abs(_poly.eval_poly(q, pt)) < 1e-8 * q.coefficient_scale():
                found.append(pt)
    found.sort(key=lambda f: (float(np.angle(f[0])) % TWO_PI,
                              float(np.angle(f[1])) % TWO_PI))
    return found


def _polish_singularity(p, t1, t2, scale, max_iter=160):
    th = np.array([t1, t2])
    p1c = derivative_coeffs(p.coeffs, 1)
    p2c = derivative_coeffs(p.coeffs, 2)

    def fval(th):
        z = np.exp(1j * th)
        return complex(_poly.eval_poly(p, (z[0], z[1])))

    f = fval(th)
    for _ in range(max_iter):
        z = np.exp(1j * th)
        d1 = complex(_poly._eval_tensor(p1c, [z[0], z[1]])) * 1j * z[0]
        d2 = complex(_poly._eval_tensor(p2c, [z[0], z[1]])) * 1j * z[1]
        J = np.array([[d1.real, d2.real], [d1.imag, d2.imag]])
        F = np.array([f.real, f.imag])
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        if not np.all(np.isfinite(step)):
            return None
        lam = 1.0
        for _bt in range(12):
            trial = th + lam * step
            ft = fval(trial)
            if abs(ft) < abs(f):
                th, f = trial, ft
                break
            lam *= 0.5
        else:
            break
        if np.linalg.norm(lam * step) < 1e-14 * max(1.0, np.linalg.norm(th)):
            break
    if abs(f) > 1e-10 * scale:
        return None
    return (complex(np.exp(1j * th[0])), complex(np.exp(1j * th[1])))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def branch_csv_lines(branch: Branch, label: str, index: int) -> list[str]:
    a = branch.alpha
    head = (f"# rif={label} alpha={a.real:.17g}{a.imag:+.17g}j "
            f"N={branch.grid_n} branch={index}")
    lines = [head, "theta,re_g,im_g,weight"]
    for t, v, w in zip(branch.theta, branch.values, branch.weights):
        lines.append(f"{t:.17g},{v.real:.17g},{v.imag:.17g},{w:.17g}")
    return lines


def export_branch_csv(branch: Branch, path, label: str, index: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(branch_csv_lines(branch, label, index)))
        fh.write("\n")
