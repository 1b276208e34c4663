"""One-variable slices of rational inner functions.

Freezing all but the last variable of a RIF at unimodular values leaves
a finite Blaschke product in the remaining variable.  Its alpha-level
points are the roots of a one-variable polynomial, and the slice Clark
measure is purely atomic with masses 1/|phi'| at those points.  Both
come here from one slice of ``levelset._slice_atoms``, the kernel every
Clark-measure builder runs over a whole grid of slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IdenticallyZeroSlice
from .levelset import UNIMODULAR_TOL, _slice_atoms, _weight_tols
from .poly import Rif


@dataclass(frozen=True)
class SliceRoots:
    """Roots of the slice level polynomial h(zeta', . ) = q - alpha p.

    ``unimodular`` flags each root lying within UNIMODULAR_TOL of the
    circle; ``degree_dropped`` records that the slice produced fewer roots
    than the generic count (a tangency or a lower-degree slice), and
    ``residual_scale`` is the coefficient scale used for that decision.
    """

    zeta_prime: tuple[complex, ...]
    alpha: complex
    roots: np.ndarray
    unimodular: np.ndarray
    degree_dropped: bool
    residual_scale: float


@dataclass(frozen=True)
class SliceAtom:
    point: complex
    mass: float
    degenerate: bool


def _slice(phi: Rif, alpha: complex, zeta_prime):
    """One slice through the kernel: (zeta', roots, num, den), by angle."""
    zp = np.atleast_1d(np.asarray(zeta_prime, dtype=complex))
    if zp.shape != (phi.dim - 1,):
        raise ValueError(
            f"zeta_prime must freeze the first {phi.dim - 1} variable(s)")
    roots, num, den, zero_rows = _slice_atoms(phi, alpha, zp[None, :])
    if zero_rows[0]:
        raise IdenticallyZeroSlice(
            f"level polynomial vanishes identically on the slice at "
            f"{tuple(zp)}")
    keep = np.flatnonzero(~np.isnan(roots[0]))
    keep = keep[np.argsort(np.angle(roots[0, keep]))]
    return zp, roots[0, keep], num[0, keep], den[0, keep]


def slice_roots(phi: Rif, alpha: complex, zeta_prime) -> SliceRoots:
    """Solve the alpha-level equation on one slice (Newton-polished roots).

    Raises IdenticallyZeroSlice when the slice polynomial vanishes to
    within 1e-10 of the level polynomial's coefficient scale — that slice
    lies inside a line component and has no well-defined root set.
    """
    zp, roots, _, _ = _slice(phi, alpha, zeta_prime)
    return SliceRoots(
        zeta_prime=tuple(complex(z) for z in zp),
        alpha=complex(alpha),
        roots=roots,
        unimodular=np.abs(np.abs(roots) - 1.0) < UNIMODULAR_TOL,
        degree_dropped=len(roots) < phi.degrees[-1],
        residual_scale=float(np.max(np.abs(phi.level_coeffs(alpha)))),
    )


def slice_clark_atoms(phi: Rif, alpha: complex, zeta_prime) -> list[SliceAtom]:
    """Atoms of the slice Clark measure at alpha.

    Each root eta of the slice level polynomial carries mass
    1/|phi'(eta)| along the last variable, computed in the
    cancellation-free form |p| / |d/dz_d (q - alpha p)|.  A vanishing
    mass (the slice passes through a singularity of phi) is kept but
    flagged degenerate, as is an atom whose denominator vanishes; both
    vanish below the tolerances of ``levelset._weight_tols``.
    """
    _, roots, num, den = _slice(phi, alpha, zeta_prime)
    num_tol, den_tol = _weight_tols(phi, alpha)
    return [SliceAtom(point=eta, mass=n / d if d > den_tol else 0.0,
                      degenerate=n < num_tol or d < den_tol)
            for eta, n, d in zip(roots.tolist(), num.tolist(), den.tolist())]
