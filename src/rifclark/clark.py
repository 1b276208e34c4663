"""Clark measures of two-variable rational inner functions.

For unimodular alpha the Clark measure sigma_alpha of a RIF phi = q/p is
the positive measure on the 2-torus with Poisson extension
(1 - |phi|^2) / |alpha - phi|^2.  It lives on the alpha-level set of
phi*: weighted arcs along the graph branches plus, for exceptional
alpha, uniform pieces on full lines.

A ClarkMeasure is one quadrature rule: level-set points ``nodes`` with
``weights`` (quadrature weight times Clark weight), plus the vertical
lines {tau} x T, each carrying the constant 1/|d phi/d z1| times arc
length.  Each line stands for the uniform grid_n-point rule on it; the
Poisson, moment and Gram sums take that rule's value in closed form and
only ``integrate`` enumerates its nodes.  sigma_alpha is the
zeta1-average of the slice Clark measures of phi(zeta1, .), so the nodes
over each zeta1 node are the atoms of its slice
(``levelset._slice_atoms``); nothing is traced.  The zeta1 nodes are
uniform unless the grid would miss where the mass of the zeta1-marginal
piles up, as near an exceptional alpha; then they cluster there
(``_zeta1_rule``).  Horizontal lines T x {tau} are the atom zeta2 = tau
of every slice, so they are already among the nodes.  Every integrator
is a weighted sum over blocks of nodes plus a term per line, and
``polydisk.build_measure_d`` returns the same structure on the tridisk.
"""

from __future__ import annotations

import binascii
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import poly as _poly
from .errors import MassGapExceeded, MassNotOne, ZeroOverZero
from .levelset import (
    Branch,
    LineComponent,
    line_constant,
    detect_lines,
    weight_parts,
    _slice_atoms,
    _uniform_theta,
    _weight_tols,
)
from .poly import Rif
from .util import TWO_PI, canonical_json

__all__ = [
    "ClarkMeasure", "build_measure", "weight_at", "line_constant",
    "integrate", "total_mass", "expected_mass", "verify_poisson",
    "PoissonReport", "herglotz_moments", "herglotz_reconstruct",
    "exact_moments", "moment_residual",
    "HerglotzFunction", "measure_to_json", "measure_from_json",
]

# nodes per block of every integrator: the (terms, nodes) tables of the
# moment, Gram and Poisson sums stay cache-sized (33 Herglotz rows of 4096
# nodes are about 2 MB).  On one core with a 2 MiB L2, herglotz_moments(32)
# took per 65536 nodes of squared at alpha = -1 50 ms with blocks of 65536,
# 37 ms at 8192, 33 at 4096, 31 at 2048 and 40 at 512; at 2048 the
# per-block overhead made verify_poisson 25-46% slower.
_BLOCK_NODES = 4096

# The uniform N-point rule resolves a pole at distance d from the circle
# to about e^{-N d}, i.e. to rounding once N d > 36.  Poisson points of
# radius 0.7 see such a pole up to (1 + 0.7) / (1 - 0.7) ~ 6 times closer,
# so poles z* with N log|z*| below 36 * 6 ~ 200 get clustered nodes.
_POLE_RESOLVE = 200.0

# largest relative mass gap a build may return: correct builds stay below
# 1e-6 (fav at |t - 1| = 1e-5, 3.7e-7, is the worst); product next to its
# singularity (t = 1 + 1e-8) is off by more and raises
MASS_GAP_TOL = 1e-6


@dataclass
class ClarkMeasure:
    """A Clark measure as a quadrature rule on the d-torus.

    ``nodes`` (n, d) are level-set points and ``weights`` (n,) the
    quadrature weight times the Clark weight there.  ``lines`` are the
    vertical line components {tau} x T, each a constant c times arc
    length, integrated by the uniform rule zeta1 = tau,
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

    ``branches`` is always empty: no builder traces labeled branches,
    nothing in the package reads it and it is not serialized.  The field
    exists only because the benchmark's traced ``queries`` run
    (bench/workloads.py) reads it, and goes once the benchmark traces
    branches itself.
    """

    phi: Rif
    alpha: complex
    grid_n: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    lines: list[LineComponent]  # vertical components only
    branches: list[Branch] = field(default_factory=list, repr=False)

    @property
    def theta(self) -> np.ndarray:
        return TWO_PI * np.arange(self.grid_n) / self.grid_n


def build_measure(phi: Rif, alpha: complex, grid_n: int = 4096) -> ClarkMeasure:
    """Construct sigma_alpha from the uniform grid of ``grid_n`` angles.

    The zeta1 nodes are that grid or, near an exceptional alpha, its
    preimages under a Blaschke product, which cluster where the mass of
    an emerging line piles up (``_zeta1_rule``).  Over each sit the atoms
    of its slice, listed root column by root column.  At an exceptional
    alpha the vertical lines are split off exactly and the grid shifts
    half a step off them.  A mass off ``expected_mass`` by more than
    MASS_GAP_TOL relatively raises MassGapExceeded.
    """
    lines = detect_lines(phi, alpha)
    theta, quad = _zeta1_rule(phi, alpha, grid_n, lines)
    zeta1 = np.exp(1j * theta)
    roots, num, den, _ = _slice_atoms(phi, alpha, zeta1[:, None])
    keep = ~np.isnan(roots.T)  # drops degree drops and zero slices
    nodes = np.stack([np.broadcast_to(zeta1, keep.shape)[keep],
                      roots.T[keep]], axis=-1)
    weights = (quad * (num / den).T)[keep]
    measure = ClarkMeasure(phi=phi, alpha=complex(alpha), grid_n=grid_n,
                           nodes=nodes, weights=weights,
                           lines=[l for l in lines if l.axis == 1])
    _check_mass(measure, expected_mass(phi, alpha))
    return measure


def _check_mass(measure, expected):
    """Raise MassGapExceeded when the measure's mass is off ``expected`` by
    more than MASS_GAP_TOL relatively (a NaN mass included)."""
    gap = abs(total_mass(measure) / expected - 1.0)
    if not gap <= MASS_GAP_TOL:
        raise MassGapExceeded(f"mass is off by relative {gap:.3g}, above "
                              f"MASS_GAP_TOL = {MASS_GAP_TOL:g}")


def _zeta1_rule(phi, alpha, grid_n, lines):
    """Ascending zeta1 angles and their quadrature weights.

    By the Poisson identity at (z1, 0) the zeta1-marginal of sigma_alpha
    is the Clark measure of b = phi(., 0) at alpha, whose density peaks
    at the roots z* of q(z, 0) - alpha p(z, 0), all outside the circle.
    The roots with N log|z*| < _POLE_RESOLVE give the zeros
    a = 1/conj(z*) of B(z) = z prod (z - a) / (1 - conj(a) z), and the
    nodes are the preimages of the N-th roots of unity under B, each of
    weight 1/(N |B'|): by Aleksandrov's disintegration the Clark measures
    of B average to arc length.  Without such roots, or with ``lines``,
    B(z) = z and the rule is the uniform grid; with vertical lines it is
    shifted to arg tau + 2 pi (k + 1/2) / N from the first line's tau,
    so no node sits on a line, whose slice is identically zero.
    """
    theta = _uniform_theta(grid_n)
    quad = np.full(grid_n, 1.0 / grid_n)
    if lines:
        taus = [l.tau for l in lines if l.axis == 1]
        shift = np.angle(taus[0]) + np.pi / grid_n if taus else 0.0
        return theta + shift, quad
    h0 = _poly.trim(phi.level_coeffs(alpha)[:, 0])  # q(z, 0) - alpha p(z, 0)
    poles = _poly.companion_roots(h0[None])[0]
    poles = poles[np.abs(poles) > 1.0]  # NaN padding compares False
    a = 1.0 / np.conj(poles[grid_n * np.log(np.abs(poles)) < _POLE_RESOLVE])
    if not len(a):
        return theta, quad
    c = np.poly(a)  # prod (z - a), highest power first
    # B(z) = w  <=>  z prod (z - a) - w prod (1 - conj(a) z) = 0
    rows = (np.append(0.0, c[::-1])[None, :]
            - np.exp(1j * theta)[:, None] * np.append(np.conj(c), 0.0)[None, :])
    theta = np.sort(np.angle(_poly.companion_roots(rows)).ravel())
    z = np.exp(1j * theta)[:, None]
    # |B'| on the circle: 1 plus the Poisson kernel of each zero
    dB = 1.0 + np.sum((1.0 - np.abs(a) ** 2) / np.abs(z - a) ** 2, axis=1)
    return theta, 1.0 / (grid_n * dB)


def _node_blocks(measure: ClarkMeasure):
    """Yield (nodes, weights) slices of at most _BLOCK_NODES stored nodes."""
    nodes, weights = measure.nodes, measure.weights
    for lo in range(0, len(weights), _BLOCK_NODES):
        yield nodes[lo:lo + _BLOCK_NODES], weights[lo:lo + _BLOCK_NODES]


def _line_blocks(measure: ClarkMeasure):
    """Yield each vertical line on the uniform grid, weight constant / grid_n
    per node, a block of at most _BLOCK_NODES nodes at a time.  Only
    ``integrate`` needs them; the other integrators take the lines in
    closed form (see ClarkMeasure)."""
    N = measure.grid_n
    for line in measure.lines:
        for lo in range(0, N, _BLOCK_NODES):
            k = np.arange(lo, min(lo + _BLOCK_NODES, N))
            yield (np.stack([np.full(len(k), complex(line.tau)),
                             np.exp(1j * (TWO_PI * k / N))], axis=1),
                   np.full(len(k), line.constant / N))


def weight_at(phi: Rif, alpha: complex, zeta1, zeta2):
    """Branch weight |p| / |d/dz2 (q - alpha p)| at given level-set points.

    Raises ZeroOverZero when both parts vanish (the point sits on a
    singularity of phi).  Measure construction takes the plain ratio and
    leaves such points to the mass guard of ``build_measure``.
    """
    num, den = weight_parts(phi, alpha, zeta1, zeta2)
    num_tol, den_tol = _weight_tols(phi, alpha)
    num_a = np.atleast_1d(num)
    den_a = np.atleast_1d(den)
    both = (num_a <= num_tol) & (den_a <= den_tol)
    if np.any(both):
        raise ZeroOverZero(
            "weight is 0/0 at a singular point of the level set")
    out = np.where(den_a > den_tol, num_a / np.where(den_a > den_tol, den_a, 1.0),
                   np.inf)
    return float(out[0]) if np.isscalar(zeta1) or np.ndim(zeta1) == 0 else \
        out.reshape(np.shape(num))


def integrate(measure: ClarkMeasure, f) -> complex:
    """Integrate f(zeta1, zeta2[, zeta3]) against the measure.

    ``f`` takes one complex array per torus coordinate, all of one
    shape, and must evaluate elementwise.  Lines enter on their uniform
    grid, node by node.
    """
    blocks = itertools.chain(_node_blocks(measure), _line_blocks(measure))
    return complex(sum(np.sum(w * f(*z.T)) for z, w in blocks))


def total_mass(measure: ClarkMeasure) -> float:
    return float(np.sum(measure.weights)
                 + sum(line.constant for line in measure.lines))


def expected_mass(phi: Rif, alpha: complex) -> float:
    """Poisson identity at the origin: (1 - |phi(0)|^2) / |alpha - phi(0)|^2."""
    v = complex(phi(0.0, *([0.0] * (phi.dim - 1))) if phi.dim > 1 else phi(0.0))
    return (1.0 - abs(v) ** 2) / abs(complex(alpha) - v) ** 2


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


def verify_poisson(measure: ClarkMeasure, points,
                   min_alpha_dist: float = 1e-6) -> PoissonReport:
    """Check the defining Poisson identity at interior points.

    ``points`` is a non-empty iterable of (z1, z2) with |z_i| < 1.  Points
    where phi(z) comes within ``min_alpha_dist`` of alpha are rejected:
    the identity degenerates there and no finite-grid quadrature is
    meaningful.  Three-variable measures go to polydisk.verify_poisson_d.
    """
    if measure.phi.dim != 2:
        raise ValueError("verify_poisson expects a two-variable inner "
                         "function; use polydisk.verify_poisson_d on the "
                         "tridisk")
    pts = np.asarray([(complex(a), complex(b)) for a, b in points],
                     dtype=complex)
    if not len(pts):
        raise ValueError("Poisson verification needs at least one point")
    if np.any(np.abs(pts) >= 1.0):
        raise ValueError("Poisson verification needs interior points")
    phi = measure.phi
    vals = phi(pts[:, 0], pts[:, 1])
    dist = np.abs(complex(measure.alpha) - vals)
    if np.any(dist < min_alpha_dist):
        raise ValueError(
            "phi(z) is too close to alpha at a requested point; the "
            "Poisson quotient is singular there")
    lhs = (1.0 - np.abs(vals) ** 2) / dist ** 2

    def poisson_factor(z, w):
        # (points,) x (nodes,) -> (points, nodes)
        return (1.0 - np.abs(w[:, None]) ** 2) / np.abs(z - w[:, None]) ** 2

    rhs = np.zeros(len(pts))
    for z, w in _node_blocks(measure):
        # 4 points at a time: the (points, nodes) temporaries stay within
        # cache whatever the count; all 20 points of a check in one pass
        # took 4-60% longer (squared near alpha = -1, N = 1024..65536)
        for lo in range(0, len(pts), 4):
            p = pts[lo:lo + 4]
            rhs[lo:lo + 4] += (poisson_factor(z[:, 0], p[:, 0])
                               * poisson_factor(z[:, 1], p[:, 1])) @ w
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


# ---------------------------------------------------------------------------
# Herglotz reconstruction
# ---------------------------------------------------------------------------

def herglotz_moments(measure: ClarkMeasure, max_degree: int) -> np.ndarray:
    """Moment table c[j, k] = integral of conj(zeta1)^j conj(zeta2)^k."""
    return _moment_tables(measure, max_degree)[0]


def _moment_tables(measure, D, mixed=False):
    """C[j, k] = integral of conj(zeta1)^j conj(zeta2)^k, j, k <= D, and,
    if ``mixed``, X[j, k] = integral of zeta1^j conj(zeta2)^k (else None),
    in one pass over the nodes that shares the conj(zeta2) powers."""
    if measure.phi.dim != 2:
        raise ValueError("moment tables expect a two-variable inner function")
    if D < 0:
        raise ValueError(f"moment degree must be non-negative, got {D}")
    C = np.zeros((D + 1, D + 1), dtype=complex)
    X = np.zeros_like(C) if mixed else None
    for z, w in _node_blocks(measure):
        A = np.empty((D + 1, len(w)), dtype=complex)
        B = np.empty_like(A)
        B[0] = 1.0
        c2 = np.conj(z[:, 1])
        for k in range(1, D + 1):
            np.multiply(B[k - 1], c2, out=B[k])
        for u, out in zip((np.conj(z[:, 0]), z[:, 0]),
                          (C, X) if mixed else (C,)):
            A[0] = w
            for j in range(1, D + 1):
                np.multiply(A[j - 1], u, out=A[j])
            out += A @ B.T
    # on a line the N-point grid averages conj(zeta2)^k to [N | k]
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
    has Taylor coefficients 2 c[j, k] at 0 off the origin, and Re H(0) is
    the mass c[0, 0] (Im H(0) is the constant the measure does not see).
    They come from power-series division: with N = alpha p + q and
    M = alpha p - q, N = M H gives each coefficient of H from the ones
    below it, M[0, 0] H[j, k] = N[j, k] - sum M[j - l, k - m] H[l, m]
    over (l, m) <= (j, k), (l, m) != (j, k).
    """
    if phi.dim != 2:
        raise ValueError("exact_moments expects a two-variable inner function")
    D = max_degree
    alpha = complex(alpha)
    h = phi.level_coeffs(alpha)  # q - alpha p at phi.degrees
    q = np.zeros((D + 1, D + 1), dtype=complex)
    M = np.zeros_like(q)
    n1, n2 = min(h.shape[0], D + 1), min(h.shape[1], D + 1)
    q[:n1, :n2] = phi.num.coeffs[:n1, :n2]
    M[:n1, :n2] = -h[:n1, :n2]
    N = 2.0 * q + M
    H = np.zeros_like(q)
    for j in range(D + 1):
        for k in range(D + 1):
            # H[j, k] is still 0, so the sum skips (l, m) = (j, k)
            acc = np.sum(M[j::-1, k::-1] * H[:j + 1, :k + 1])
            H[j, k] = (N[j, k] - acc) / M[0, 0]
    C = H / 2.0
    C[0, 0] = H[0, 0].real
    return C


def moment_residual(measure: ClarkMeasure, max_degree: int) -> float:
    """Largest error of the measure's moments up to ``max_degree``.

    Covers |herglotz_moments - exact_moments| and the mixed moments
    integral of zeta1^j conj(zeta2)^k, j, k >= 1, which vanish because
    Re H, the Poisson integral of the measure, is pluriharmonic.
    """
    exact = exact_moments(measure.phi, measure.alpha, max_degree)
    C, X = _moment_tables(measure, max_degree, mixed=True)
    mixed = np.abs(X[1:, 1:])
    return float(max(np.abs(C - exact).max(), mixed.max(initial=0.0)))


@dataclass(frozen=True)
class HerglotzFunction:
    """Herglotz integral of a Clark measure, truncated at a fixed degree.

    ``herglotz`` evaluates H(z) = c00 + 2 sum_{(j,k) != 0} c_jk z1^j z2^k
    and the instance itself evaluates the reconstructed inner function
    alpha (H - 1) / (H + 1).
    """

    alpha: complex
    moments: np.ndarray = field(repr=False)

    @property
    def max_degree(self) -> int:
        return self.moments.shape[0] - 1

    def herglotz(self, z1, z2):
        table = 2.0 * self.moments
        table[0, 0] = self.moments[0, 0]
        return np.polynomial.polynomial.polyval2d(
            np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex),
            table)

    def __call__(self, z1, z2):
        H = self.herglotz(z1, z2)
        return self.alpha * (H - 1.0) / (H + 1.0)


def herglotz_reconstruct(measure: ClarkMeasure,
                         max_degree: int = 32) -> HerglotzFunction:
    """Rebuild phi from the measure via its Herglotz integral.

    Requires unit mass (|c00 - 1| <= 1e-6): the identity
    phi = alpha (H - 1)/(H + 1) normalizes H(0) = 1, which pins the
    measure's mass at one.  Other masses raise MassNotOne.
    """
    C = herglotz_moments(measure, max_degree)
    mass = float(np.real(C[0, 0]))
    if abs(mass - 1.0) > 1e-6:
        raise MassNotOne(
            f"Herglotz reconstruction needs a probability measure; "
            f"mass is {mass!r}")
    return HerglotzFunction(alpha=complex(measure.alpha), moments=C)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def measure_to_json(measure: ClarkMeasure) -> str:
    """Canonical JSON of the measure; ``nodes`` and ``weights`` are binary.

    They are base64 strings of raw little-endian bytes in row-major
    order: nodes complex128 (``<c16``) of shape (n, phi.dim), weights
    float64 (``<f8``) of shape (n,).  So every value survives bit for bit
    (-0.0, NaN, infinities, subnormals); the other fields are text.
    """
    obj = {
        "type": "clark_measure",
        "alpha": complex(measure.alpha),
        "grid_n": measure.grid_n,
        "rif": {
            "degrees": list(measure.phi.degrees),
            "den": _poly.poly_to_json_obj(measure.phi.den),
        },
        "mass": total_mass(measure),
        "nodes": _pack(measure.nodes, "<c16"),
        "weights": _pack(measure.weights, "<f8"),
        "lines": [
            {"axis": line.axis, "tau": complex(line.tau),
             "constant": line.constant}
            for line in measure.lines
        ],
    }
    return canonical_json(obj)


def _pack(a, dtype):
    raw = np.ascontiguousarray(a, dtype=dtype)
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def _unpack(payload, dtype, key):
    if not isinstance(payload, str):  # such as the earlier text arrays
        raise ValueError(f"Clark measure {key} must be base64 of raw {dtype} "
                         "bytes; text-array records are no longer read")
    raw = binascii.a2b_base64(payload)  # binascii.Error is a ValueError
    if len(raw) % np.dtype(dtype).itemsize:
        raise ValueError(f"Clark measure {key} is not a whole number of "
                         f"{dtype} values")
    return np.frombuffer(raw, dtype=dtype).copy()  # writable, as built


def measure_from_json(text: str) -> ClarkMeasure:
    """Read a measure written by measure_to_json (same encoding).

    Raises ValueError for anything else: records without ``nodes`` and
    ``weights`` (the per-branch format), text-array payloads (the earlier
    flat format), malformed base64 or lengths that do not fit together.
    """
    obj = json.loads(text)
    if obj.get("type") != "clark_measure":
        raise ValueError("not a serialized Clark measure")
    if "nodes" not in obj or "weights" not in obj:
        raise ValueError("Clark measure record has no nodes and weights; "
                         "per-branch records are no longer read")
    den = _poly.poly_from_json_obj(obj["rif"]["den"])
    phi = Rif(den, degrees=tuple(obj["rif"]["degrees"]))
    weights = _unpack(obj["weights"], "<f8", "weights")
    nodes = _unpack(obj["nodes"], "<c16", "nodes")
    if len(nodes) != len(weights) * phi.dim:
        raise ValueError(f"Clark measure record needs one node of {phi.dim} "
                         "coordinates per weight")
    lines = [LineComponent(axis=int(rec["axis"]), tau=complex(*rec["tau"]),
                           constant=float(rec["constant"]))
             for rec in obj["lines"]]
    return ClarkMeasure(phi=phi, alpha=complex(*obj["alpha"]),
                        grid_n=int(obj["grid_n"]),
                        nodes=nodes.reshape(len(weights), phi.dim),
                        weights=weights, lines=lines)
