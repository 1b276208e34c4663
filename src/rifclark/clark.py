"""Clark measures of two-variable rational inner functions.

For unimodular alpha the Clark measure sigma_alpha of a RIF phi = q/p is
the positive measure on the 2-torus with Poisson extension
(1 - |phi|^2) / |alpha - phi|^2.  It lives on the alpha-level set of
phi*: weighted arcs along the graph branches plus, for exceptional
alpha, uniform pieces on full lines.  Horizontal lines T x {tau} are
traced as constant branches and already carry their weight; vertical
lines {tau} x T enter as separate uniform terms with the constant
1/|d phi/d z1| along the line.
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
    trace_branches,
    detect_lines,
    weight_parts,
    _weight_tols,
    MAX_SPIKE_LEVELS,
    REFINE_FACTOR,
)
from .poly import PolyMD, Rif
from .util import TWO_PI, canonical_json

__all__ = [
    "ClarkMeasure", "build_measure", "weight_at", "line_constant",
    "integrate", "total_mass", "verify_poisson", "PoissonReport",
    "herglotz_moments", "herglotz_reconstruct", "HerglotzFunction",
    "measure_to_json", "measure_from_json",
]


@dataclass
class ClarkMeasure:
    phi: Rif
    alpha: complex
    grid_n: int
    branches: list[Branch]
    lines: list[LineComponent]  # vertical components only

    @property
    def theta(self) -> np.ndarray:
        return TWO_PI * np.arange(self.grid_n) / self.grid_n


def build_measure(phi: Rif, alpha: complex, grid_n: int = 4096) -> ClarkMeasure:
    """Construct sigma_alpha on a uniform grid of ``grid_n`` angles.

    At an exceptional alpha the lines are split off exactly, and the
    remaining branches are left on the uniform grid: spike refinement
    there would only trade the spectral rule for a trapezoid one.
    """
    lines = detect_lines(phi, alpha)
    branches = trace_branches(phi, alpha, grid_n, spike_refine=not lines)
    return ClarkMeasure(phi=phi, alpha=complex(alpha), grid_n=grid_n,
                        branches=branches,
                        lines=[l for l in lines if l.axis == 1])


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


def _merged_nodes(branch: Branch):
    """Branch samples merged with refined extras, plus quadrature weights.

    Returns (zeta1, values, weights, quad) with quad summing to 1.  With
    no extras the quadrature is the plain uniform average, which for
    periodic smooth integrands is spectrally accurate; extras switch the
    affected branch to a composite trapezoid rule.
    """
    N = branch.grid_n
    if branch.extra_ticks.size == 0:
        zeta1 = np.exp(1j * branch.theta)
        quad = np.full(N, 1.0 / N)
        return zeta1, branch.values, branch.weights, quad
    sub = REFINE_FACTOR ** MAX_SPIKE_LEVELS
    ticks = np.concatenate([np.arange(N, dtype=np.int64) * sub,
                            branch.extra_ticks])
    vals = np.concatenate([branch.values, branch.extra_values])
    wts = np.concatenate([branch.weights, branch.extra_weights])
    order = np.argsort(ticks)
    ticks, vals, wts = ticks[order], vals[order], wts[order]
    theta = TWO_PI * ticks.astype(float) / (N * sub)
    gaps = np.diff(np.concatenate([theta, [theta[0] + TWO_PI]]))
    quad = (gaps + np.roll(gaps, 1)) / (2.0 * TWO_PI)
    return np.exp(1j * theta), vals, wts, quad


def integrate(measure: ClarkMeasure, f) -> complex:
    """Integrate f(zeta1, zeta2) against the measure.

    ``f`` must accept equal-shaped complex arrays and evaluate
    elementwise.
    """
    total = 0.0 + 0.0j
    for br in measure.branches:
        zeta1, vals, wts, quad = _merged_nodes(br)
        total += np.sum(quad * wts * f(zeta1, vals))
    if measure.lines:
        zg = np.exp(1j * measure.theta)
        for line in measure.lines:
            tau = np.full_like(zg, line.tau)
            total += line.constant * np.mean(f(tau, zg))
    return complex(total)


def total_mass(measure: ClarkMeasure) -> float:
    mass = integrate(measure, lambda z1, z2: np.ones_like(z1, dtype=float))
    return float(np.real(mass))


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
        return (1.0 - np.abs(w) ** 2) / np.abs(z - w) ** 2

    rhs = np.zeros(len(pts))
    for k, (z1, z2) in enumerate(pts):
        rhs[k] = np.real(integrate(
            measure,
            lambda a, b: poisson_factor(a, z1) * poisson_factor(b, z2)))
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
    for br in measure.branches:
        zeta1, vals, wts, quad = _merged_nodes(br)
        A = np.ones((D + 1, len(zeta1)), dtype=complex)
        B = np.ones_like(A)
        cz, cg = np.conj(zeta1), np.conj(vals)
        for j in range(1, D + 1):
            A[j] = A[j - 1] * cz
            B[j] = B[j - 1] * cg
        C += (A * (quad * wts)) @ B.T
    for line in measure.lines:
        # uniform in zeta2: only the k = 0 moments survive
        tau_pow = np.conj(line.tau) ** np.arange(D + 1)
        C[:, 0] += line.constant * tau_pow
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
        "branches": [
            {
                "values": br.values,
                "weights": br.weights,
                "jump_index": br.jump_index,
                "filled": br.filled,
                "zero_over_zero": br.zero_over_zero,
                "extra_ticks": br.extra_ticks,
                "extra_values": br.extra_values,
                "extra_weights": br.extra_weights,
            }
            for br in measure.branches
        ],
        "lines": [
            {"axis": line.axis, "tau": complex(line.tau),
             "constant": line.constant}
            for line in measure.lines
        ],
    }
    return canonical_json(obj)


def measure_from_json(text: str) -> ClarkMeasure:
    import json

    obj = json.loads(text)
    if obj.get("type") != "clark_measure":
        raise ValueError("not a serialized Clark measure")
    den = _poly.poly_from_json_obj(obj["rif"]["den"])
    phi = Rif(den, degrees=tuple(obj["rif"]["degrees"]))
    alpha = complex(*obj["alpha"])
    N = int(obj["grid_n"])
    theta = TWO_PI * np.arange(N) / N

    def carr(pairs):
        # a view, not a[:, 0] + 1j * a[:, 1], which loses a -0.0 imaginary part
        a = np.asarray(pairs, dtype=float).reshape(-1, 2)
        return np.ascontiguousarray(a).view(complex).reshape(-1)

    branches = []
    for rec in obj["branches"]:
        branches.append(Branch(
            alpha=alpha,
            theta=theta,
            values=carr(rec["values"]),
            weights=np.asarray(rec["weights"], dtype=float),
            jump_index=rec["jump_index"],
            filled=np.asarray(rec["filled"], dtype=int),
            zero_over_zero=np.asarray(rec["zero_over_zero"], dtype=int),
            extra_ticks=np.asarray(rec["extra_ticks"], dtype=np.int64),
            extra_values=carr(rec["extra_values"]),
            extra_weights=np.asarray(rec["extra_weights"], dtype=float),
        ))
    lines = [LineComponent(axis=int(rec["axis"]), tau=complex(*rec["tau"]),
                           constant=float(rec["constant"]))
             for rec in obj["lines"]]
    return ClarkMeasure(phi=phi, alpha=alpha, grid_n=N, branches=branches,
                        lines=lines)
