"""Clark measures of two-variable rational inner functions.

For unimodular alpha the Clark measure sigma_alpha of a RIF phi = q/p is
the positive measure on the 2-torus with Poisson extension
(1 - |phi|^2) / |alpha - phi|^2.  It lives on the alpha-level set of
phi*: weighted arcs along the graph branches plus, for exceptional
alpha, uniform pieces on full lines.

A ClarkMeasure is one quadrature rule: level-set points ``nodes`` with
``weights`` (quadrature weight times Clark weight), plus the vertical
lines {tau} x T, each carrying the constant 1/|d phi/d z1| and
integrated on the uniform grid.  Horizontal lines T x {tau} are traced
as constant branches, so they are already among the nodes.  Branch
labels play no part: every integrator is a weighted sum over blocks of
nodes, and ``polydisk.build_measure_d`` returns the same structure on
the tridisk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import poly as _poly
from .errors import MassNotOne, ZeroOverZero
from .levelset import (
    Branch,
    LineComponent,
    line_constant,
    detect_lines,
    weight_parts,
    _refine_spikes,
    _trace,
    _weight_tols,
    MAX_SPIKE_LEVELS,
    REFINE_FACTOR,
)
from .poly import Rif
from .util import TWO_PI, canonical_json

__all__ = [
    "ClarkMeasure", "build_measure", "weight_at", "line_constant",
    "integrate", "total_mass", "expected_mass", "verify_poisson",
    "PoissonReport", "herglotz_moments", "herglotz_reconstruct",
    "HerglotzFunction", "measure_to_json", "measure_from_json",
]

# nodes per block of every integrator: bounds the (terms, nodes) matrices
# of the moment, Gram and Poisson sums
_BLOCK_NODES = 65536


@dataclass
class ClarkMeasure:
    """A Clark measure as a quadrature rule on the d-torus.

    ``nodes`` (n, d) are level-set points and ``weights`` (n,) the
    quadrature weight times the Clark weight there.  ``lines`` are the
    vertical line components; they enter every integral on the uniform
    ``grid_n``-point grid.  ``branches`` keeps the labeled branches a
    2-variable build traced; nothing in the package reads them and they
    are not serialized.  The field exists only for the benchmark's
    traced ``queries`` run (bench/workloads.py), which reads it, and
    goes once the benchmark traces branches itself.
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
    """Construct sigma_alpha on a uniform grid of ``grid_n`` angles.

    Where a weight spike is narrower than the grid, refined nodes are
    added; they sit at the same angles on every branch, so one composite
    trapezoid rule in zeta1 replaces the uniform average.  At an
    exceptional alpha the lines are split off exactly, and the remaining
    branches are left on the uniform grid: spike refinement there would
    only trade the spectral rule for a trapezoid one.
    """
    lines = detect_lines(phi, alpha)
    branches, den = _trace(phi, alpha, grid_n)
    zeta1 = np.exp(1j * branches[0].theta)
    values = np.array([br.values for br in branches])
    weights = np.array([br.weights for br in branches])
    quad = np.full(grid_n, 1.0 / grid_n)
    extras = None if lines else _refine_spikes(phi, alpha, branches, den)
    if extras is not None:
        ticks, extra_values, extra_weights = extras
        sub = REFINE_FACTOR ** MAX_SPIKE_LEVELS
        ticks = np.concatenate([np.arange(grid_n, dtype=np.int64) * sub, ticks])
        order = np.argsort(ticks)
        theta = TWO_PI * ticks[order].astype(float) / (grid_n * sub)
        gaps = np.diff(np.concatenate([theta, [theta[0] + TWO_PI]]))
        quad = (gaps + np.roll(gaps, 1)) / (2.0 * TWO_PI)
        zeta1 = np.exp(1j * theta)
        values = np.concatenate([values, extra_values], axis=1)[:, order]
        weights = np.concatenate([weights, extra_weights], axis=1)[:, order]
    nodes = np.stack([np.broadcast_to(zeta1, values.shape), values], axis=-1)
    return ClarkMeasure(phi=phi, alpha=complex(alpha), grid_n=grid_n,
                        nodes=nodes.reshape(-1, 2),
                        weights=(quad * weights).ravel(),
                        lines=[l for l in lines if l.axis == 1],
                        branches=branches)


def _blocks(measure: ClarkMeasure):
    """Yield (nodes, weights) slices of at most _BLOCK_NODES nodes.

    The stored nodes come first, then each vertical line on the uniform
    grid with weight constant / grid_n per node.
    """
    parts = [(measure.nodes, measure.weights)]
    N = measure.grid_n
    for line in measure.lines:
        parts.append((np.stack([np.full(N, complex(line.tau)),
                                np.exp(1j * measure.theta)], axis=1),
                      np.full(N, line.constant / N)))
    for nodes, weights in parts:
        for lo in range(0, len(weights), _BLOCK_NODES):
            yield nodes[lo:lo + _BLOCK_NODES], weights[lo:lo + _BLOCK_NODES]


def weight_at(phi: Rif, alpha: complex, zeta1, zeta2):
    """Branch weight |p| / |d/dz2 (q - alpha p)| at given level-set points.

    Raises ZeroOverZero when both parts vanish (the point sits on a
    singularity of phi); such nodes are filled by extrapolation during
    measure construction, not pointwise.
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
    shape, and must evaluate elementwise.
    """
    return complex(sum(np.sum(w * f(*z.T)) for z, w in _blocks(measure)))


def total_mass(measure: ClarkMeasure) -> float:
    return float(sum(np.sum(w) for _, w in _blocks(measure)))


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

    ``points`` is an iterable of (z1, z2) with |z_i| < 1.  Points where
    phi(z) comes within ``min_alpha_dist`` of alpha are rejected: the
    identity degenerates there and no finite-grid quadrature is
    meaningful.
    """
    pts = np.asarray([(complex(a), complex(b)) for a, b in points],
                     dtype=complex)
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
    for z, w in _blocks(measure):
        # 4 points at a time: the (points, nodes) temporaries stay a few
        # MB, below what building the measure took, whatever the count
        for lo in range(0, len(pts), 4):
            p = pts[lo:lo + 4]
            rhs[lo:lo + 4] += (poisson_factor(z[:, 0], p[:, 0])
                               * poisson_factor(z[:, 1], p[:, 1])) @ w
    abs_err = np.abs(lhs - rhs)
    rel_err = abs_err / np.abs(lhs)
    return PoissonReport(points=pts, lhs=lhs, rhs=rhs, abs_err=abs_err,
                         rel_err=rel_err)


# ---------------------------------------------------------------------------
# Herglotz reconstruction
# ---------------------------------------------------------------------------

def herglotz_moments(measure: ClarkMeasure, max_degree: int) -> np.ndarray:
    """Moment table c[j, k] = integral of conj(zeta1)^j conj(zeta2)^k."""
    D = max_degree
    C = np.zeros((D + 1, D + 1), dtype=complex)
    for z, w in _blocks(measure):
        A = np.empty((D + 1, len(w)), dtype=complex)
        B = np.empty_like(A)
        A[0], B[0] = w, 1.0
        cz, cg = np.conj(z[:, 0]), np.conj(z[:, 1])
        for j in range(1, D + 1):
            A[j] = A[j - 1] * cz
            B[j] = B[j - 1] * cg
        C += A @ B.T
    return C


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
    obj = {
        "type": "clark_measure",
        "alpha": complex(measure.alpha),
        "grid_n": measure.grid_n,
        "rif": {
            "degrees": list(measure.phi.degrees),
            "den": _poly.poly_to_json_obj(measure.phi.den),
        },
        "mass": total_mass(measure),
        "nodes": measure.nodes,
        "weights": measure.weights,
        "lines": [
            {"axis": line.axis, "tau": complex(line.tau),
             "constant": line.constant}
            for line in measure.lines
        ],
    }
    return canonical_json(obj)


def measure_from_json(text: str) -> ClarkMeasure:
    """Read a measure written by measure_to_json.

    Raises ValueError for anything else, including records without
    ``nodes`` and ``weights`` such as the older per-branch format.
    """
    import json

    obj = json.loads(text)
    if obj.get("type") != "clark_measure":
        raise ValueError("not a serialized Clark measure")
    if "nodes" not in obj or "weights" not in obj:
        raise ValueError("Clark measure record has no nodes and weights; "
                         "per-branch records are no longer read")
    den = _poly.poly_from_json_obj(obj["rif"]["den"])
    phi = Rif(den, degrees=tuple(obj["rif"]["degrees"]))
    weights = np.asarray(obj["weights"], dtype=float)
    pairs = np.ascontiguousarray(np.asarray(obj["nodes"], dtype=float))
    if weights.ndim != 1 or pairs.shape != (len(weights), phi.dim, 2):
        raise ValueError(f"Clark measure record needs one node of {phi.dim} "
                         "[re, im] pairs per weight")
    # a view, not re + 1j * im, which loses a -0.0 imaginary part
    nodes = pairs.view(complex).reshape(len(weights), phi.dim)
    lines = [LineComponent(axis=int(rec["axis"]), tau=complex(*rec["tau"]),
                           constant=float(rec["constant"]))
             for rec in obj["lines"]]
    return ClarkMeasure(phi=phi, alpha=complex(*obj["alpha"]),
                        grid_n=int(obj["grid_n"]), nodes=nodes,
                        weights=weights, lines=lines)
