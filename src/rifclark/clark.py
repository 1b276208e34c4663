"""Clark measures of rational inner functions on the bidisk and tridisk.

For unimodular alpha the Clark measure sigma_alpha of a RIF phi = q/p is
the positive measure on the d-torus with Poisson extension
(1 - |phi|^2) / |alpha - phi|^2.  It lives on the alpha-level set of
phi*: weighted arcs along the graph branches plus, for exceptional
alpha in two variables, uniform pieces on full lines.

A ClarkMeasure is one fibered quadrature rule: base nodes zeta', each
stored once, the atoms |p| / |d/dz_d h| of the slice phi(zeta', .) over
each (sigma_alpha is the zeta'-average of the slice Clark measures), all
from one kernel (``levelset._atom_blocks``), plus the vertical lines
{tau} x T, each carrying the constant 1/|d phi/d z1| times arc length.
Each line stands for the uniform grid_n-point rule on it; the Poisson,
moment and Gram sums take that rule's value in closed form and only
``integrate`` enumerates its nodes.  One rule (``_zeta1_rule``) places
the zeta1 nodes: uniform, half a step off the first line, and clustered
by a Blaschke product wherever the grid would miss the poles of the
zeta1-marginal, with lines or without: that product's Clark atoms, from
the same kernel.  A horizontal line T x {tau} is the atom zeta2 = tau of
every slice.  On the tridisk the base is a tensor grid, through the same
build body (``_fibered``), and every integrator here takes both through
one body: it walks blocks of base nodes, forms each base column's factor
once per node, adds a line term.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import poly as _poly
from .errors import (MassGapExceeded, MassNotOne, MeasureMismatch,
                     UnstableDenominator)
from .levelset import (
    UNIMODULAR_TOL,
    LineComponent,
    _atom_blocks,
    _lines,
    _unimodular_alpha,
)
from .poly import Rif
from .util import (TWO_PI, canonical_json, grid_shift, unit_circle_points,
                   unit_roots)

__all__ = [
    "ClarkMeasure", "build_measure",
    "integrate", "total_mass", "expected_mass", "verify_poisson",
    "PoissonReport", "herglotz_moments", "herglotz_reconstruct",
    "exact_moments", "moment_residual",
    "HerglotzFunction", "measure_to_json", "measure_from_json",
]

# atoms per block of every integrator (_BLOCK_NODES // k base nodes): the
# (terms, base nodes) operands of the moment and Gram sums stay cache-sized
# (squared's 33 Herglotz rows of conj(zeta1) powers and of fiber sums over
# 2048 base nodes are about 2 MB).  On one core with a 2 MiB L2,
# herglotz_moments(32) of squared at alpha = -1, N = 65536, took 33 ms in
# flat blocks of 65536 atoms, 22.7 at 8192, 21.8 at 4096, 22.4 at 2048 and
# 35 at 512 (medians of 30 interleaved calls); at 2048 verify_poisson (20
# points) was 48% slower (15.7 against 10.6 ms).
_BLOCK_NODES = 4096

# The uniform N-point rule resolves a pole at distance d from the circle
# to about e^{-N d}, i.e. to rounding once N d > 36.  Poisson points of
# radius 0.7 see such a pole up to (1 + 0.7) / (1 - 0.7) ~ 6 times closer,
# so poles z* with N log|z*| below 36 * 6 ~ 200 get clustered nodes.
_POLE_RESOLVE = 200.0

# largest relative mass gap a build may return: correct builds stay below
# 1e-6 (fav at t = 1 + 5e-6, N = 512, 2.6e-7, is the worst); product next
# to its singularity (t = 1 + 1e-8) raises
MASS_GAP_TOL = 1e-6

# verify_poisson refuses points where |alpha - phi(z)| is below this: the
# Poisson quotient there exceeds 1e12 times its numerator 1 - |phi|^2
MIN_ALPHA_DIST = 1e-6

# build_measure's grid_n by phi.dim, for each dimension it builds
DEFAULT_GRID = {2: 4096, 3: 256}


@dataclass
class ClarkMeasure:
    """A Clark measure as a fibered quadrature rule on the d-torus.

    ``base`` (m, d-1) holds the base nodes zeta', each once, ``atoms``
    (k, m) the k atoms zeta_d over each, root-major as the slice kernel
    returns them, and ``weights`` (k, m) the base node's quadrature weight
    times the atom's Clark weight |p| / |d/dz_d (q - alpha p)|.  An empty
    atom (a NaN root: a degree drop or a zero slice) holds 1 with weight
    exactly 0, so every sum stays finite; ``integrate`` skips it.
    ``lines`` are the vertical line components {tau} x T, each a constant
    c times arc length, integrated by the uniform rule zeta1 = tau,
    zeta2 = e^{2 pi i k / N}, k < N = ``grid_n``, of weight c / N per
    node.  ``integrate`` alone enumerates those nodes; the other
    integrators add the rule's value in closed form, aliasing included:

    - moments: c conj(tau)^j [N | k] to the integral of
      conj(zeta1)^j conj(zeta2)^k (c tau^j [N | k] for zeta1^j);
    - Poisson at (z1, z2): c P(z1, tau) (1 - |z2|^2N) / |1 - z2^N|^2;
    - Gram: on the line the embedded kernel at w_a is
      g_a / (1 - conj(w_a2) zeta2), g_a = prefac_a / (1 - conj(w_a1) tau),
      and entry (a, b) gains c g_a conj(g_b) S_N(conj(w_a2), w_b2) with
      S_N(a, b) = (1 - a^N b^N) / ((1 - a b) (1 - a^N) (1 - b^N)).

    Horizontal lines are among the atoms.  The zeta1 nodes, shifted off
    the lines or clustered near an emerging one (root-major, as
    ``_zeta1_rule`` returns them), are ``base[:, 0]``.  On
    the plain uniform rule ``base`` is a read-only view of the N-th roots
    of unity that every build at that N shares (``util.unit_roots``).

    The class attribute ``branches`` (always empty) stays only because
    the benchmark reads it; it goes with ROADMAP item 2a.
    """

    phi: Rif
    alpha: complex
    grid_n: int
    base: np.ndarray = field(repr=False)
    atoms: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    lines: list[LineComponent]  # vertical components only
    branches = ()


def build_measure(phi: Rif, alpha: complex,
                  grid_n: int | None = None) -> ClarkMeasure:
    """sigma_alpha of a RIF in two or three variables from ``grid_n``
    angles per base coordinate (DEFAULT_GRID[phi.dim] if None): the zeta1
    rule (``_zeta1_rule``) in two, in three the tensor grid of the shared
    N-th roots of unity, each pair of weight 1 / N**2, if ``Rif.certificate``
    keeps a margin above UNIMODULAR_TOL (else UnstableDenominator).  The
    build body (``_fibered``) raises MassGapExceeded."""
    if phi.dim not in DEFAULT_GRID:
        raise ValueError(f"build_measure handles two or three variables, "
                         f"not {phi.dim}")
    alpha = _unimodular_alpha(alpha)
    N = DEFAULT_GRID[phi.dim] if grid_n is None else grid_n
    if phi.dim == 2:
        zeta1, quad, lines = _zeta1_rule(phi, alpha, N)
        return _fibered(phi, alpha, N, zeta1[:, None], quad, lines,
                        expected_mass(phi, alpha))
    zg = unit_roots(N)
    if not phi.certificate - 1.0 > UNIMODULAR_TOL:  # NaN fails too
        raise UnstableDenominator(
            f"the least root modulus of the denominator's slices is "
            f"{phi.certificate:.6g}, not above 1 + UNIMODULAR_TOL; the graph "
            "structure formula does not apply")
    pts = np.empty((N, N, 2), dtype=complex)  # (zg_i, zg_j) at row i N + j
    pts[..., 0], pts[..., 1] = zg[:, None], zg
    return _fibered(phi, alpha, N, pts.reshape(N * N, 2),
                    np.broadcast_to(1.0 / (N * N), N * N), [], None)


def _fibered(phi, alpha, grid_n, base, quad, lines, expected):
    """The measure of the fibered rule over ``base`` (m, d-1) of weights
    ``quad`` (m,), the build body of ``build_measure``.  Each block of the
    slice kernel (``_atom_blocks``) turns its num = |p| into
    quad |p| / |d/dz_d h| in place, an empty atom held as ClarkMeasure
    describes, so a build holds nothing of size m but its outputs.  A mass
    off ``expected`` (None: the rule's sum of the exact slice masses,
    ``_origin_masses``) by more than MASS_GAP_TOL relatively, or a NaN
    mass, raises MassGapExceeded."""
    atoms = np.empty((phi.degrees[-1], len(base)), dtype=complex)
    weights = np.empty(atoms.shape)
    mass = 0.0  # the rule's sum of the slice masses, if expected is None
    for b, den, _, full, h0, p0 in _atom_blocks(
            phi.level_coeffs(alpha), phi._den_full, base, atoms, weights):
        roots, w = atoms[:, b], weights[:, b]
        np.divide(w, den, out=w)
        w *= quad[b]
        if not full:  # a degree drop or a zero slice (see ClarkMeasure)
            empty = np.isnan(roots)
            roots[empty], w[empty] = 1.0, 0.0
        if expected is None:
            mass += quad[b] @ _origin_masses(alpha, h0, p0)
        del h0, p0  # views of the block's rows: not held through the next
    measure = ClarkMeasure(phi=phi, alpha=alpha, grid_n=grid_n, base=base,
                           atoms=atoms, weights=weights, lines=lines)
    gap = abs(total_mass(measure) / (mass if expected is None else expected)
              - 1.0)
    if not gap <= MASS_GAP_TOL:
        raise MassGapExceeded(f"mass is off by relative {gap:.3g}, above "
                              f"MASS_GAP_TOL = {MASS_GAP_TOL:g}")
    return measure


def _zeta1_rule(phi, alpha, grid_n):
    """The zeta1 nodes, their quadrature weights and the vertical lines,
    all from the roots z* of h(., 0) = q(., 0) - alpha p(., 0), which
    ``levelset._lines`` returns with the lines.
    Unshifted and unclustered, the nodes are the shared read-only table
    ``util.unit_roots(grid_n)`` itself, and the weights a read-only
    broadcast of 1 / grid_n that allocates nothing.

    By the Poisson identity at (z1, 0) the zeta1-marginal of sigma_alpha is
    the Clark measure of b = phi(., 0) at alpha: atoms at the roots on the
    circle, the lines, and a density peaking at the roots outside.  Those
    with N log|z*| < _POLE_RESOLVE, less the roots within UNIMODULAR_TOL
    of a line's tau, give the zeros a = 1/conj(z*) of
    B(z) = z prod (z - a) / (1 - conj(a) z).  The nodes are the preimages
    under B of w_k = B(tau) e^{i (2 pi k / N + s)}, tau the first line's and
    s = ``util.grid_shift`` off every line's B(tau) (no node on a line,
    where the slice is identically zero), or without lines of the N-th roots
    of unity: the slice kernel's root-major atoms
    (``levelset._atom_blocks``) of h(w, z) = z prod (z - a) - w p(z),
    p = prod (1 - conj(a) z), put on the circle by angle, each of weight
    |p| / (N |d/dz h|) = 1 / (N |B'|): by Aleksandrov's disintegration the
    Clark measures of B average to arc length.  Without such roots B(z) = z.
    """
    roots, lines = _lines(phi.level_coeffs(alpha), phi.den.coeffs)
    zeta1 = unit_roots(grid_n)
    quad = np.broadcast_to(1.0 / grid_n, grid_n)  # read-only, no copy
    poles = roots[np.abs(roots) > 1.0]  # NaN padding compares False
    for line in lines:  # the root of a line is its atom, not a pole
        poles = poles[np.abs(poles - line.tau) >= UNIMODULAR_TOL]
    a = 1.0 / np.conj(poles[grid_n * np.log(np.abs(poles)) < _POLE_RESOLVE])
    if lines:  # B(tau) / tau of each line; the grid starts from arg tau
        turn = [np.prod((ln.tau - a) / (1.0 - np.conj(a) * ln.tau))
                for ln in lines]
        arg = np.angle([ln.tau * t for ln, t in zip(lines, turn)])
        zeta1 = unit_circle_points(TWO_PI * np.arange(grid_n) / grid_n + (
            np.angle(lines[0].tau) + grid_shift(arg - arg[0], grid_n)))
    if not len(a):
        return zeta1, quad, lines
    w = zeta1 * turn[0] if lines else zeta1  # B(tau) e^{i (2 pi k / N + s)}
    c = np.poly(a)  # prod (z - a), highest power first
    # p = prod (1 - conj(a) z), constant first, with no term in w
    pcoef = np.array([np.append(np.conj(c), 0.0), np.zeros(len(c) + 1)])
    hcoef = np.array([np.append(0.0, c[::-1]), -pcoef[0]])
    z = np.empty((len(c), grid_n), dtype=complex)
    quad = np.empty(z.shape)
    for b, den, *_ in _atom_blocks(hcoef, pcoef, w[:, None], z, quad):
        quad[:, b] /= den * grid_n
    return unit_circle_points(np.angle(z).ravel()), quad.ravel(), lines


def _fiber_blocks(measure: ClarkMeasure, size=None):
    """Yield (base, atoms, weights) views of ``size`` // k base nodes at a
    time (size _BLOCK_NODES by default) with their (k, block) atoms."""
    k, m = measure.weights.shape
    step = max(1, (size or _BLOCK_NODES) // k)
    for lo in range(0, m, step):
        b = slice(lo, lo + step)
        yield measure.base[b], measure.atoms[:, b], measure.weights[:, b]


def _line_blocks(measure: ClarkMeasure):
    """Yield each vertical line on the uniform grid, weight constant / grid_n
    per node, a block of at most _BLOCK_NODES nodes at a time.  Only
    ``integrate`` needs them; the other integrators take the lines in
    closed form (see ClarkMeasure)."""
    N = measure.grid_n
    for line in measure.lines:
        for lo in range(0, N, _BLOCK_NODES):
            zeta2 = unit_roots(N)[lo:lo + _BLOCK_NODES]
            yield ((np.full(len(zeta2), complex(line.tau)), zeta2),
                   np.full(len(zeta2), line.constant / N))


def integrate(measure: ClarkMeasure, f) -> complex:
    """Integrate f(zeta1, zeta2[, zeta3]) against the measure.

    ``f`` takes one complex array per torus coordinate, all of one
    shape, and must evaluate elementwise.  It is evaluated only at atoms
    of non-zero weight, so never at an empty one.  Lines enter on their
    uniform grid, node by node.
    """
    total = 0.0
    for base, atoms, w in _fiber_blocks(measure):
        live = w != 0.0
        z = [np.broadcast_to(c, atoms.shape)[live] for c in base.T]
        total += np.sum(w[live] * f(*z, atoms[live]))
    for z, w in _line_blocks(measure):
        total += np.sum(w * f(*z))
    return complex(total)


def total_mass(measure: ClarkMeasure) -> float:
    return float(np.sum(measure.weights)
                 + sum(line.constant for line in measure.lines))


def expected_mass(phi: Rif, alpha: complex) -> float:
    """Poisson identity at the origin: (1 - |phi(0)|^2) / |alpha - phi(0)|^2,
    with phi(0) the ratio of the constant coefficients of q and p;
    ValueError for alpha off the circle."""
    v = complex(phi.num.coeffs.flat[0] / phi.den.coeffs.flat[0])
    return (1.0 - abs(v) ** 2) / abs(_unimodular_alpha(alpha) - v) ** 2


def _origin_masses(alpha: complex, h0, p0):
    """Mass of the Clark measure of each slice b = phi(zeta', .) from its
    rows of h = q - alpha p and p at z_d = 0: the Poisson identity at
    z_d = 0, (1 - |b(0)|^2) / |alpha - b(0)|^2 with b(0) = alpha + h0 / p0,
    so (1 - |alpha + r|^2) / |r|^2 for r = h0 / p0."""
    r = h0 / p0
    b0 = r + alpha
    return (1.0 - (b0.real ** 2 + b0.imag ** 2)) / (r.real ** 2
                                                    + r.imag ** 2)


@dataclass(frozen=True)
class PoissonReport:
    points: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    abs_err: np.ndarray
    rel_err: np.ndarray

    @property
    def max_rel_err(self) -> float:
        return float(np.max(self.rel_err))


def verify_poisson(measure: ClarkMeasure, points) -> PoissonReport:
    """Check the defining Poisson identity at interior points.

    ``points`` is a non-empty iterable of points z of ``phi.dim``
    coordinates, each |z_i| < 1.  Points where phi(z) comes within
    MIN_ALPHA_DIST of alpha are rejected: the identity degenerates there
    and no finite-grid quadrature is meaningful.
    """
    pts, lhs = _poisson_lhs(measure.phi, measure.alpha, points)

    # sum over base nodes of prod_i<d 1 / |zeta_i - z_i|^2 times the fiber's
    # sum of w / |zeta_d - z_d|^2, 4 points at a time: the real (points,
    # atoms) temporaries of blocks of 2 _BLOCK_NODES atoms stay cache-sized
    # (squared, alpha = -e^{0.05i}, N = 65536: 77 ms in 4096, 51 in 8192)
    rhs = np.zeros(len(pts))
    for base, atoms, w in _fiber_blocks(measure, 2 * _BLOCK_NODES):
        # contiguous real parts: strided ones are read 2-3x slower
        *cols, zd = (np.stack((z.real, z.imag)) for z in (*base.T, atoms))
        for lo in range(0, len(pts), 4):
            p = pts[lo:lo + 4]
            fiber = _sq_dist(zd, p[:, -1])
            np.divide(w, fiber, out=fiber)
            fiber = _fiber_sum(fiber)
            for z, c in zip(cols, p[:, :-1].T):
                fiber /= _sq_dist(z, c)
            rhs[lo:lo + 4] += fiber.sum(axis=1)
    rhs *= np.prod(1.0 - np.abs(pts) ** 2, axis=1)
    if measure.lines:
        # the N-point grid on a line averages P(., z2) to the aliased
        # (1 - |z2|^2N) / |1 - z2^N|^2
        z1, zN = pts[:, 0], pts[:, 1] ** measure.grid_n
        alias = (1.0 - np.abs(zN) ** 2) / np.abs(1.0 - zN) ** 2
        for line in measure.lines:
            rhs += (line.constant * alias * (1.0 - np.abs(z1) ** 2)
                    / np.abs(line.tau - z1) ** 2)
    abs_err = np.abs(lhs - rhs)
    rel_err = abs_err / np.abs(lhs)
    return PoissonReport(points=pts, lhs=lhs, rhs=rhs, abs_err=abs_err,
                         rel_err=rel_err)


def _poisson_lhs(phi, alpha, points):
    """``points`` as an (m, d) array (``_polydisk_points``) and the
    Poisson identity's left side at each, refusing those near alpha."""
    pts = _polydisk_points(points, phi.dim, "Poisson verification")
    vals = phi(*pts.T)
    dist = np.abs(complex(alpha) - vals)
    if np.any(dist < MIN_ALPHA_DIST):
        raise ValueError(
            "phi(z) is too close to alpha at a requested point; the "
            "Poisson quotient is singular there")
    return pts, (1.0 - np.abs(vals) ** 2) / dist ** 2


def _polydisk_points(points, d, what):
    """``points`` as an (m, d) complex array; ValueError unless there is
    at least one, each of ``d`` coordinates, and every coordinate lies in
    the open unit disk (NaN and the infinities do not)."""
    pts = [[complex(c) for c in z] for z in points]
    if not pts:
        raise ValueError(f"{what} needs at least one point")
    if any(len(z) != d for z in pts):
        raise ValueError(f"{what} needs points of {d} coordinates")
    pts = np.asarray(pts, dtype=complex)
    if not np.all(np.abs(pts) < 1.0):
        raise ValueError(f"{what} needs interior points")
    return pts


def _sq_dist(zeta, z):
    """|zeta - z|^2 for ``zeta`` given as (real, imag) parts, shape
    (len(z),) + zeta's, as dx^2 + dy^2 in real arithmetic (no hypot)."""
    d = np.subtract.outer(z.real, zeta[0])
    d *= d
    dy = np.subtract.outer(z.imag, zeta[1])
    dy *= dy
    d += dy
    return d


def _fiber_sum(a):
    """Sum of ``a`` (..., k, block) over its k atoms, into a[..., 0, :]."""
    total = a[..., 0, :]
    for r in range(1, a.shape[-2]):
        total += a[..., r, :]
    return total


def _fiber_powers(atoms, w, G):
    """G[k, i] = sum_r w_ri conj(zeta2_ri)^k, k < len(G), into G, for
    atoms and weights with one row r per atom of a slice: one running
    weighted power P, P *= conj(atoms) per step, its rows added into
    G[k] in row order, so no (len(G), rows, block) table is built.  A
    single row is its own sum: its power runs in G itself."""
    c2 = np.conj(atoms)
    if len(w) == 1:
        G[0] = w[0]
        for k in range(1, len(G)):
            np.multiply(G[k - 1], c2[0], out=G[k])
        return G
    P = w.astype(complex)
    for k in range(len(G)):
        if k:
            P *= c2
        np.add(P[0], P[1], out=G[k])
        for r in range(2, len(P)):
            G[k] += P[r]
    return G


# ---------------------------------------------------------------------------
# Herglotz reconstruction
# ---------------------------------------------------------------------------

def herglotz_moments(measure: ClarkMeasure, max_degree: int) -> np.ndarray:
    """Moment table c[j] = integral of conj(zeta)^j, j in [0, D]^d."""
    return _moment_tables(measure, max_degree)[0]


def _moment_tables(measure, D, mixed=False):
    """C[j] = integral of conj(zeta)^j, j in [0, D]^d, and, if ``mixed``,
    X[j', k] = integral of zeta'^j' conj(zeta_d)^k (else None): each fiber
    reduced to G[k, i] = sum_r w_ri conj(zeta_d,ri)^k (``_fiber_powers``),
    then one product with the (D + 1)^(d - 1) rows of conj(zeta') powers,
    stacked over their conjugates for X; row j' + j s, s the stride of a
    base column, is row j' + (j - 1) s times its conj(zeta_i)."""
    if D < 0:
        raise ValueError(f"moment degree must be non-negative, got {D}")
    d = measure.phi.dim
    rows = (D + 1) ** (d - 1)
    C = np.zeros((D + 1,) * d, dtype=complex)
    X = np.zeros_like(C) if mixed else None
    # one A and G serve every block, _fiber_blocks' first the largest; its
    # _BLOCK_NODES (D + 1) / (k rows) nodes keep A at the size of d = 2's
    k, m = measure.weights.shape
    size = max(1, _BLOCK_NODES * (D + 1) // rows)
    n = min(m, max(1, size // k))
    A = np.empty((2 * rows if mixed else rows, n), dtype=complex)
    A[0] = 1.0
    G = np.empty((D + 1, n), dtype=complex)
    for base, atoms, w in _fiber_blocks(measure, size):
        a, g = A[:, :len(base)], G[:, :len(base)]
        s = 1
        for z in base.T[::-1]:
            c = np.conj(z)
            for j in range(1, D + 1):
                np.multiply(a[(j - 1) * s:j * s], c, out=a[j * s:(j + 1) * s])
            s *= D + 1
        if mixed:
            np.conj(a[:rows], out=a[rows:])
        AG = a @ _fiber_powers(atoms, w, g).T
        C += AG[:rows].reshape(C.shape)
        if mixed:
            X += AG[rows:].reshape(C.shape)
    # on a line (d = 2) the N-point grid averages conj(zeta2)^k to [N | k]
    j = np.arange(D + 1)[:, None]
    N = measure.grid_n
    for line in measure.lines:
        tau = complex(line.tau)
        C[:, ::N] += line.constant * np.conj(tau) ** j
        if mixed:
            X[:, ::N] += line.constant * tau ** j
    return C, X


def exact_moments(phi: Rif, alpha: complex, max_degree: int) -> np.ndarray:
    """The moment table of herglotz_moments, exactly from phi.

    The Herglotz function H = (alpha p + q) / (alpha p - q) of sigma_alpha
    has Taylor coefficients 2 c[j] at 0 off the origin, and Re H(0) is
    the mass c[0] (Im H(0) is the constant the measure does not see), in
    every dimension (Koranyi and Pukanszky, Trans. AMS 108, 1963), by
    power-series division: with N = alpha p + q and M = alpha p - q,
    N = M H gives each coefficient of H from those of lower total degree,
    M[0] H[j] = N[j] - sum M[l] H[j - l] over the nonzero M[l], 0 < l <= j.
    So the coefficients of one total degree |j| = t are filled together,
    one vectorised multiply-add per nonzero coefficient of M.
    ValueError for alpha off the circle and for a negative degree.
    """
    D = max_degree
    if D < 0:
        raise ValueError(f"moment degree must be non-negative, got {D}")
    alpha = _unimodular_alpha(alpha)
    h = phi.level_coeffs(alpha)  # q - alpha p at phi.degrees
    q = np.zeros((D + 1,) * phi.dim, dtype=complex)
    M = np.zeros_like(q)
    cut = tuple(slice(min(n, D + 1)) for n in h.shape)
    q[cut] = phi.num.coeffs[cut]
    M[cut] = -h[cut]
    N = 2.0 * q + M
    H = np.zeros_like(q)
    terms = [(np.array(l)[:, None], M[l]) for l in zip(*np.nonzero(M))
             if any(l)]
    idx = np.indices(q.shape).reshape(phi.dim, -1)
    total = idx.sum(axis=0)
    for t in range(phi.dim * D + 1):
        j = idx[:, total == t]
        acc = N[tuple(j)]
        for l, m in terms:
            ok = (j >= l).all(axis=0)
            acc[ok] -= m * H[tuple(j[:, ok] - l)]
        H[tuple(j)] = acc / M.flat[0]
    C = H / 2.0
    C.flat[0] = H.flat[0].real
    return C


def moment_residual(measure: ClarkMeasure, max_degree: int) -> float:
    """Largest error of the measure's moments up to ``max_degree``.

    Covers |herglotz_moments - exact_moments| and the mixed moments
    integral of zeta'^j' conj(zeta_d)^k, j' != 0, k >= 1, which vanish
    because Re H, the Poisson integral of the measure, is pluriharmonic.
    """
    exact = exact_moments(measure.phi, measure.alpha, max_degree)
    C, X = _moment_tables(measure, max_degree, mixed=True)
    mixed = np.abs(X[..., 1:])
    mixed[(0,) * (mixed.ndim - 1)] = 0.0  # the zeta' = 0 row is C's
    return float(max(np.abs(C - exact).max(), mixed.max(initial=0.0)))


@dataclass(frozen=True)
class HerglotzFunction:
    """Herglotz integral of a Clark measure, truncated at a fixed degree.

    ``herglotz`` evaluates H(z) = c_0 + 2 sum_{j != 0} c_j z^j at points
    of one array per coordinate, and the instance itself evaluates the
    reconstructed inner function alpha (H - 1) / (H + 1).
    """

    alpha: complex
    moments: np.ndarray = field(repr=False)

    def herglotz(self, *z):
        table = 2.0 * self.moments
        table.flat[0] = self.moments.flat[0]
        return _poly._eval_tensor(table, z)

    def __call__(self, *z):
        H = self.herglotz(*z)
        return self.alpha * (H - 1.0) / (H + 1.0)


def herglotz_reconstruct(measure: ClarkMeasure,
                         max_degree: int = 32) -> HerglotzFunction:
    """Rebuild phi from the measure via its Herglotz integral.

    Requires unit mass (|c_0 - 1| <= MASS_GAP_TOL): the identity
    phi = alpha (H - 1)/(H + 1) normalizes H(0) = 1, which pins the
    measure's mass at one.  Other masses, a NaN one included, raise
    MassNotOne.
    """
    C = herglotz_moments(measure, max_degree)
    mass = float(np.real(C.flat[0]))
    if not abs(mass - 1.0) <= MASS_GAP_TOL:
        raise MassNotOne(
            f"Herglotz reconstruction needs a probability measure; "
            f"mass is {mass!r}")
    return HerglotzFunction(alpha=complex(measure.alpha), moments=C)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def measure_to_json(measure: ClarkMeasure) -> str:
    """Canonical JSON of the measure's recipe: the RIF header, alpha and
    grid_n, which fix every number a build returns, and ``sha256``, the
    digest of the built arrays (``_digest``).  ``mass`` and ``lines`` are
    text for people; measure_from_json reads neither.  ValueError unless
    the base nodes and atoms are finite and the weights finite and >= 0.
    """
    if not (np.isfinite(measure.base).all()
            and np.isfinite(measure.atoms).all()):
        raise ValueError("Clark measure base nodes and atoms must be finite")
    if not ((measure.weights >= 0.0) & (measure.weights < np.inf)).all():
        raise ValueError("Clark measure weights must be finite and >= 0")
    return canonical_json({
        "type": "clark_measure",
        "alpha": complex(measure.alpha),
        "grid_n": measure.grid_n,
        "rif": {
            "degrees": list(measure.phi.degrees),
            "den": _poly.poly_to_json_obj(measure.phi.den),
        },
        "sha256": _digest(measure),
        "mass": total_mass(measure),
        "lines": [
            {"axis": line.axis, "tau": complex(line.tau),
             "constant": line.constant}
            for line in measure.lines
        ],
    })


def _digest(measure):
    """The SHA-256, in hex, of the raw bytes of ``base``, ``atoms`` and
    ``weights``, in that order and each row-major and little-endian."""
    import hashlib  # its OpenSSL binding takes ~5 ms to load: only here

    h = hashlib.sha256()
    for a in (measure.base, measure.atoms, measure.weights):
        h.update(np.ascontiguousarray(a, a.dtype.newbyteorder("<")))
    return h.hexdigest()


def measure_from_json(text: str) -> ClarkMeasure:
    """Rebuild the measure of a file that measure_to_json wrote.

    The RIF, alpha and grid_n go to ``build_measure``, and a rebuild whose
    digest is not the file's ``sha256`` raises MeasureMismatch, naming both.
    Raises ValueError for anything else: a record without the keys
    alpha, grid_n, rif and sha256 (every earlier layout lacks sha256), an
    alpha other than a pair [re, im] of finite numbers, a grid_n that is
    not a positive integer, a malformed rif header, and whatever the
    builder refuses (an alpha off the circle among them).
    """
    obj = json.loads(text)
    if not isinstance(obj, dict) or obj.get("type") != "clark_measure":
        raise ValueError("not a serialized Clark measure")
    alpha, grid_n, rif, digest = _poly.json_fields(
        obj, ("alpha", "grid_n", "rif", "sha256"), "Clark measure record")
    degrees, den = _poly.json_fields(rif, ("degrees", "den"),
                                     "Clark measure rif")
    phi = Rif(_poly.poly_from_json_obj(den), _poly.json_degrees(degrees, 1))
    if type(grid_n) is not int or grid_n < 1:  # type() keeps out True
        raise ValueError("Clark measure grid_n must be a positive integer")
    if not _poly.finite_pair(alpha):
        raise ValueError("Clark measure alpha must be a pair [re, im] of "
                         "finite numbers")
    # alpha was stored projected, and projecting it again keeps its bits
    measure = build_measure(phi, complex(*alpha), grid_n)
    got = _digest(measure)
    if got != digest:
        raise MeasureMismatch(f"the rebuilt measure has sha256 {got}, the "
                              f"file {digest}")
    return measure

