"""Unimodular level sets of rational inner functions on the bidisk.

For a RIF phi = q/p of bidegree (m, n) and unimodular alpha, the level
set { zeta on the 2-torus : phi*(zeta) = alpha } is cut out by the level
polynomial h = q - alpha * p.  Away from finitely many exceptional alpha
it is the union of n graphs zeta2 = g_j(zeta1) over the circle; at
exceptional alpha whole lines { tau } x T or T x { tau } join in.

This module traces the graphs over a uniform angle grid (companion-matrix
roots per slice, nearest-neighbor continuation with collision refinement,
Newton polish), attaches the branch weights used by Clark measures, finds
line components, and locates boundary singularities of phi.
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
MAX_SPIKE_LEVELS = 6
COLLISION_LEVELS = 3
ZERO_SLICE_REL_TOL = 1e-10
UNIMODULAR_TOL = 1e-6


def _polyval_rows(rows, w):
    """Evaluate per-row polynomials: rows (..., k+1) at points w (...,)."""
    acc = rows[..., -1] * np.ones_like(w)
    for k in range(rows.shape[-1] - 2, -1, -1):
        acc = acc * w + rows[..., k]
    return acc


@dataclass
class Branch:
    """One graph component zeta2 = g(zeta1) of a level set.

    ``theta`` holds N uniformly spaced angles; ``values`` the unimodular
    samples g(e^{i theta}); ``weights`` the Clark branch weight at each
    node.  ``jump_index`` marks the one grid node where branch
    relabeling across the wrap-around is permitted.
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

def weight_parts(phi: Rif, alpha: complex, zeta1, zeta2):
    """Numerator |p| and denominator |d/dz2 (q - alpha p)| of branch weights."""
    z1, z2 = np.broadcast_arrays(np.asarray(zeta1, dtype=complex),
                                 np.asarray(zeta2, dtype=complex))
    num = np.abs(_poly.eval_poly(phi.den, (z1, z2)))
    hd = derivative_coeffs(phi.level_coeffs(alpha), 2)
    den = np.abs(_poly._eval_tensor(hd, [z1, z2]))
    return num, den


def _weight_tols(phi: Rif, alpha: complex):
    hd = derivative_coeffs(phi.level_coeffs(alpha), 2)
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


def _match_column(ref, roots, amb_state):
    """Assign roots to branch labels by nearest neighbor.

    Returns (values, ambiguous) where values has one entry per branch
    (NaN when no root could be assigned) and ambiguous flags labels whose
    assignment another root nearly ties.
    """
    n = len(ref)
    out = np.full(n, np.nan + 1j * np.nan, dtype=complex)
    if len(roots) == 0:
        return out, False
    cost = np.abs(ref[:, None] - roots[None, :])
    ri, ci = assign(cost)
    out[ri] = roots[ci]
    # per-pair checks on Python lists: numpy calls cost more than the
    # work at a handful of roots, and this runs once per grid node
    table = cost.tolist()
    ambiguous = False
    for r, c in zip(ri.tolist(), ci.tolist()):
        d_self = table[r][c]
        d_alt = min(table[r][:c] + table[r][c + 1:], default=np.inf)
        if d_alt < 2.0 * d_self and d_self > amb_state:
            ambiguous = True
    for b in set(range(n)) - set(ri.tolist()):
        # fewer roots than branches: a tangency absorbs a label, so the
        # nearest root is reused; a far "nearest" root means the value
        # is genuinely missing and is left for interpolation
        j = int(cost[b].argmin())
        if cost[b, j] < 0.5:
            out[b] = roots[j]
    return out, ambiguous


def _solve_slices(hcoef, zeta):
    rows = slice_coeffs(hcoef, np.asarray(zeta, dtype=complex)[:, None])
    scale = float(np.max(np.abs(hcoef)))
    rowmax = np.max(np.abs(rows), axis=-1)
    zero_rows = rowmax < ZERO_SLICE_REL_TOL * scale
    safe = rows.copy()
    safe[zero_rows] = 1.0  # placeholder, roots discarded for zero rows
    roots = companion_roots(safe)
    for i in np.nonzero(zero_rows)[0]:
        roots[i] = np.empty(0, dtype=complex)
    return rows, roots, zero_rows


def _chain_match(hcoef, ref, theta_lo, theta_hi, level, max_level):
    """Resolve an ambiguous continuation step by refining the interval."""
    mid = theta_lo + (theta_hi - theta_lo) * np.arange(1, REFINE_FACTOR) \
        / REFINE_FACTOR
    _, roots, zero_rows = _solve_slices(hcoef, np.exp(1j * mid))
    cur = ref
    for k in range(len(mid)):
        if zero_rows[k]:
            continue
        cur, amb = _match_column(cur, roots[k], 1e-12)
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
    return _trace(phi, alpha, grid_n)[0]


def _trace(phi, alpha, grid_n):
    """trace_branches, plus the (n_branches, grid_n) weight denominators."""
    if phi.dim != 2:
        raise ValueError("trace_branches expects a two-variable inner function")
    if grid_n < 256 or grid_n & (grid_n - 1):
        raise ValueError("grid_n must be a power of two, at least 256")
    if abs(abs(alpha) - 1.0) > 1e-9:
        raise ValueError("alpha must be unimodular")
    alpha = complex(alpha)

    theta, zeta = unit_circle_points(grid_n)
    dtheta = TWO_PI / grid_n
    hcoef = phi.level_coeffs(alpha)
    rows, roots, zero_rows = _solve_slices(hcoef, zeta)

    counts = np.array([len(r) for r in roots])
    n_br = int(counts.max()) if counts.size else 0
    if n_br == 0:
        raise IdenticallyZeroSlice(
            "level polynomial vanished on every sampled slice")
    # seed at the first node carrying the full complement of roots
    seed = int(np.argmax(counts == n_br))

    values = np.full((n_br, grid_n), np.nan + 1j * np.nan, dtype=complex)
    order = np.argsort(np.angle(roots[seed]))
    values[:, seed] = roots[seed][order]

    ref = values[:, seed].copy()
    for step in range(1, grid_n):
        i = (seed + step) % grid_n
        if zero_rows[i]:
            continue
        col, ambiguous = _match_column(ref, roots[i], 1e-12)
        if ambiguous and n_br > 1:
            prev = (i - 1) % grid_n
            col = _chain_match(hcoef, ref, theta[prev],
                               theta[prev] + dtheta, 1, COLLISION_LEVELS)
            col, still = _match_column(col, roots[i], 1e-12)
            if still:
                gaps = np.abs(col[:, None] - col[None, :])
                np.fill_diagonal(gaps, np.inf)
                if np.min(gaps) > 1e-9:
                    raise ContinuationCollision(
                        f"branches could not be relabeled near theta="
                        f"{theta[i]:.6f}")
        values[:, i] = col
        nan = np.isnan(col)
        ref = np.where(nan, ref, col)

    # wrap-around closure: permutation relative to the seed column
    jump: set[int] = set()
    if n_br > 1:
        ri, ci = assign(np.abs(ref[:, None] - values[:, seed][None, :]))
        jump.update(ri[ri != ci].tolist())

    filled = [np.nonzero(np.isnan(values[b]))[0] for b in range(n_br)]
    _fill_missing(values, theta)
    _newton_polish(rows, values, zero_rows)

    num, den = weight_parts(phi, alpha, zeta[None, :], values)
    num_tol, den_tol = _weight_tols(phi, alpha)
    weights = np.zeros_like(num)
    ok = den > den_tol
    weights[ok] = num[ok] / den[ok]
    zoz = (~ok) & (num <= num_tol)
    bad = (~ok) & (num > num_tol)
    if np.any(bad):
        # denominator vanished while the numerator did not: the node sits
        # on a line; treat like 0/0 and let extrapolation fill it
        zoz |= bad
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
    ], den


def _fill_missing(values, theta):
    """Fill NaN nodes per branch by local Lagrange interpolation in theta."""
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
    """Polish all non-degenerate nodes with a few Newton steps."""
    drows = rows[:, 1:] * np.arange(1, rows.shape[1])
    scale = np.max(np.abs(rows), axis=-1)
    live = ~zero_rows
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
# adaptive refinement
# ---------------------------------------------------------------------------

def _solve_window(phi, alpha, hcoef, ticks, fine, seeds, num_tol, den_tol):
    """Solve slices at integer tick positions and trail-match the branches."""
    theta = TWO_PI * ticks / fine
    zeta = np.exp(1j * theta)
    rows, roots, zero_rows = _solve_slices(hcoef, zeta)
    n_br = len(seeds)
    vals = np.full((n_br, len(ticks)), np.nan + 1j * np.nan, dtype=complex)
    ref = seeds.copy()
    for k in range(len(ticks)):
        if zero_rows[k]:
            vals[:, k] = ref
            continue
        col, _ = _match_column(ref, roots[k], np.inf)
        nan = np.isnan(col)
        col = np.where(nan, ref, col)
        vals[:, k] = col
        ref = col
    _newton_polish(rows, vals, zero_rows)
    num, den = weight_parts(phi, alpha, zeta[None, :], vals)
    wts = np.zeros_like(num)
    ok = den > den_tol
    wts[ok] = num[ok] / den[ok]
    zoz = ~ok
    if np.any(zoz):
        for b in range(n_br):
            idx = np.nonzero(zoz[b])[0]
            good = np.nonzero(~zoz[b])[0]
            for i in idx:
                if good.size:
                    wts[b, i] = wts[b, good[np.argmin(np.abs(good - i))]]
    return vals, wts, den


def _refine_spikes(phi, alpha, branches, den):
    """Refine cells where a branch weight spike is narrower than the grid.

    Spikes appear when alpha comes close to an exceptional value and mass
    starts to pile up along an emerging line; ``den`` holds the weight
    denominators of the traced branches, where the spikes show.  Returns
    None when no spike needs refinement, else (ticks, values, weights):
    sorted integer positions strictly between base nodes on a grid
    REFINE_FACTOR ** MAX_SPIKE_LEVELS times finer, shared by every
    branch, and the (n_branches, len(ticks)) samples and Clark weights
    there.
    """
    N = branches[0].grid_n
    hcoef = phi.level_coeffs(alpha)
    num_tol, den_tol = _weight_tols(phi, alpha)
    seeds0 = np.array([br.values for br in branches])
    fine = N * REFINE_FACTOR ** MAX_SPIKE_LEVELS
    dtheta = TWO_PI / N
    cells: set[int] = set()
    for db in den:
        med = float(np.median(db))
        if med <= 0.0:
            continue
        left = np.roll(db, 1)
        right = np.roll(db, -1)
        dips = np.nonzero((db < left) & (db <= right) & (db < 0.25 * med))[0]
        for i in dips:
            slope = max(abs(right[i] - db[i]), abs(db[i] - left[i])) / dtheta
            if slope <= 0.0:
                continue
            if db[i] / slope < 4.0 * dtheta:
                for c in range(i - 6, i + 6):
                    cells.add(c % N)
    if not cells:
        return None
    windows = _group_cells(sorted(cells), N)
    extras: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def recurse(lo_tick, hi_tick, level, seeds):
        parent_spacing = fine // (N * REFINE_FACTOR ** (level - 1))
        spacing = parent_spacing // REFINE_FACTOR
        ticks = np.arange(lo_tick, hi_tick + spacing, spacing, dtype=np.int64)
        vals, wts, dloc = _solve_window(phi, alpha, hcoef, ticks, fine,
                                        seeds, num_tol, den_tol)
        extras.append((ticks, vals, wts))
        if level >= MAX_SPIKE_LEVELS:
            return
        dth = TWO_PI * spacing / fine
        for b in range(dloc.shape[0]):
            j = int(np.argmin(dloc[b]))
            if j == 0 or j == len(ticks) - 1:
                continue
            slope = max(abs(dloc[b, j + 1] - dloc[b, j]),
                        abs(dloc[b, j] - dloc[b, j - 1])) / dth
            if slope <= 0.0 or dloc[b, j] / slope >= 4.0 * dth:
                continue
            lo = max(lo_tick, ticks[j] - 6 * spacing)
            hi = min(hi_tick, ticks[j] + 6 * spacing)
            kseed = int(np.searchsorted(ticks, lo))
            recurse(lo, hi, level + 1, vals[:, kseed].copy())
            break

    for (c_lo, c_hi) in windows:
        lo_tick = np.int64(c_lo) * (fine // N)
        hi_tick = np.int64(c_hi + 1) * (fine // N)
        seeds = seeds0[:, c_lo % N].copy()
        recurse(lo_tick, hi_tick, 1, seeds)

    ticks = np.mod(np.concatenate([t for t, _, _ in extras]), fine)
    keep = np.nonzero(ticks % (fine // N) != 0)[0]
    ticks, idx = np.unique(ticks[keep], return_index=True)
    pick = keep[idx]
    return (ticks, np.concatenate([v for _, v, _ in extras], axis=1)[:, pick],
            np.concatenate([w for _, _, w in extras], axis=1)[:, pick])


def _group_cells(cells, N):
    """Group sorted cell indices into maximal contiguous (lo, hi) runs."""
    windows = []
    run = [cells[0], cells[0]]
    for c in cells[1:]:
        if c == run[1] + 1:
            run[1] = c
        else:
            windows.append(tuple(run))
            run = [c, c]
    windows.append(tuple(run))
    # merge a run that wraps around the end of the grid into the first one
    if len(windows) > 1 and windows[0][0] == 0 and windows[-1][1] == N - 1:
        first = windows.pop(0)
        last = windows.pop()
        windows.insert(0, (last[0] - N, first[1]))
    return windows


# ---------------------------------------------------------------------------
# line components
# ---------------------------------------------------------------------------

def line_constant(phi: Rif, alpha: complex, tau: complex, axis: int = 1,
                  n_test: int = 8, spread_tol: float = 1e-8) -> float:
    """Constant weight of a line component through tau.

    On a line the derivative of phi transversal to it is constant; the
    returned value is 1/|that derivative|, evaluated through the
    cancellation-free ratio (d/dz_axis of the level polynomial) / p at
    ``n_test`` points along the line.  Raises NonConstantDerivative when
    the slice at tau is not identically alpha or when the sampled ratio
    is not constant.
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
    if mean <= 0.0 or (np.max(ratio) - np.min(ratio)) > spread_tol * max(mean, 1.0):
        raise NonConstantDerivative(
            f"transversal derivative varies along the line at tau={tau:.6g}")
    return 1.0 / mean


def detect_lines(phi: Rif, alpha: complex,
                 unimodular_tol: float = UNIMODULAR_TOL) -> list[LineComponent]:
    """Find every line component of the level set at alpha, both axes.

    Vertical lines ({tau} x T, axis 1) are the canonical line carriers in
    measure construction; horizontal lines also show up as constant
    branches of the tracer and are reported here with axis 2.
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
        for r in roots:
            if abs(abs(r) - 1.0) >= unimodular_tol:
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

def find_singularities(phi: Rif, seed_grid: int = 2048,
                       tol: float = 1e-11) -> list[tuple[complex, complex]]:
    """Common boundary zeros of p and its reflection on the 2-torus.

    Seeds come from slice roots of p that approach the unit circle (plus
    coarse torus minima of |p|); each seed is polished by a damped
    least-squares Newton iteration on (Re p, Im p) = 0 in the two angle
    variables.  The Jacobian is singular at the zeros themselves, so the
    iteration is run to stagnation rather than a fixed count.
    """
    if phi.dim != 2:
        raise ValueError("find_singularities expects a two-variable function")
    p = phi.den
    scale = p.coefficient_scale()
    seeds: list[tuple[float, float]] = []

    _, zg = unit_circle_points(seed_grid)
    tg = TWO_PI * np.arange(seed_grid) / seed_grid
    for axis in (2, 1):
        if p.coeffs.shape[2 - axis] == 1:
            continue
        rows = slice_coeffs(p.coeffs, zg[:, None], axis=axis)
        roots = companion_roots(rows)
        prox = np.full(seed_grid, np.inf)
        arg = np.zeros(seed_grid)
        for i, r in enumerate(roots):
            if r.size == 0:
                continue
            d = np.abs(np.abs(r) - 1.0)
            j = int(np.argmin(d))
            prox[i] = d[j]
            arg[i] = float(np.angle(r[j])) % TWO_PI
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
