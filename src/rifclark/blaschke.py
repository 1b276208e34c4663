"""One-variable slices of rational inner functions.

Freezing all but the last variable of a RIF at unimodular values leaves
a finite Blaschke product in the remaining variable.  Its alpha-level
points are the roots of a one-variable polynomial, and the slice Clark
measure is purely atomic with masses 1/|phi'| at those points.  Both are
exposed here; the full two-variable machinery lives in `levelset` and
`clark`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import poly as _poly
from .errors import IdenticallyZeroSlice
from .levelset import ZERO_SLICE_REL_TOL
from .poly import Rif, companion_roots, derivative_coeffs, slice_coeffs


@dataclass(frozen=True)
class SliceRoots:
    """Roots of the slice level polynomial h(zeta', . ) = q - alpha p.

    ``unimodular`` flags each root lying on the circle within tolerance;
    ``degree_dropped`` records that the slice produced fewer roots than
    the generic count (a tangency or a lower-degree slice), and
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


def _slice_row(phi: Rif, alpha, zeta_prime):
    zp = np.atleast_1d(np.asarray(zeta_prime, dtype=complex))
    if zp.shape != (phi.dim - 1,):
        raise ValueError(
            f"zeta_prime must freeze the first {phi.dim - 1} variable(s)")
    h = phi.level_coeffs(alpha)
    row = slice_coeffs(h, zp[None, :])[0]
    scale = float(np.max(np.abs(h)))
    return zp, row, scale


def slice_roots(phi: Rif, alpha: complex, zeta_prime,
                unimodular_tol: float = 1e-6) -> SliceRoots:
    """Solve the alpha-level equation on one slice.

    Raises IdenticallyZeroSlice when the slice polynomial vanishes to
    within 1e-10 of the level polynomial's coefficient scale — that slice
    lies inside a line component and has no well-defined root set.
    """
    zp, row, scale = _slice_row(phi, alpha, zeta_prime)
    if np.max(np.abs(row)) < ZERO_SLICE_REL_TOL * scale:
        raise IdenticallyZeroSlice(
            f"level polynomial vanishes identically on the slice at "
            f"{tuple(zp)}")
    roots = companion_roots(row[None, :])[0]
    roots = roots[~np.isnan(roots)]
    roots = roots[np.argsort(np.angle(roots))]
    n = phi.degrees[-1]
    return SliceRoots(
        zeta_prime=tuple(complex(z) for z in zp),
        alpha=complex(alpha),
        roots=roots,
        unimodular=np.abs(np.abs(roots) - 1.0) < unimodular_tol,
        degree_dropped=len(roots) < n,
        residual_scale=scale,
    )


def slice_clark_atoms(phi: Rif, alpha: complex, zeta_prime,
                      mass_tol: float = 1e-9) -> list[SliceAtom]:
    """Atoms of the slice Clark measure at alpha.

    Each root eta of the slice level polynomial carries mass
    1/|phi'(eta)| along the last variable, computed in the
    cancellation-free form |p| / |d/dz_d (q - alpha p)|.  A vanishing
    mass (the slice passes through a singularity of phi) is kept but
    flagged degenerate.
    """
    sr = slice_roots(phi, alpha, zeta_prime)
    zp = np.asarray(sr.zeta_prime, dtype=complex)
    h = phi.level_coeffs(alpha)
    hd = derivative_coeffs(h, phi.dim)
    atoms: list[SliceAtom] = []
    num_scale = phi.den.coefficient_scale()
    den_scale = float(np.sum(np.abs(hd)))
    for eta in sr.roots:
        zs = [np.asarray(z, dtype=complex) for z in zp] + \
            [np.asarray(eta, dtype=complex)]
        num = abs(complex(_poly._eval_tensor(phi.den.coeffs, zs)))
        den = abs(complex(_poly._eval_tensor(hd, zs)))
        degenerate = num < mass_tol * num_scale or den < mass_tol * den_scale
        mass = num / den if den > mass_tol * den_scale else 0.0
        atoms.append(SliceAtom(point=complex(eta), mass=mass,
                               degenerate=degenerate))
    return atoms
