"""Dense multivariate polynomials, reflection, and stability certification.

A polynomial in d complex variables is stored as a dense coefficient
tensor ``coeffs`` of shape ``(n_1 + 1, ..., n_d + 1)`` where
``coeffs[j_1, ..., j_d]`` multiplies ``z_1**j_1 * ... * z_d**j_d``.
Declared degrees must be attained: the top slab of every axis has to
contain a coefficient above DEGREE_DROP_REL_TOL of the tensor's largest,
so a polynomial and any nonzero multiple of it are accepted alike.

The reflection of p at degrees (n_1, ..., n_d) is

    p~(z) = z_1**n_1 * ... * z_d**n_d * conj(p(1/conj(z_1), ..., 1/conj(z_d)))

which on the coefficient tensor is "reverse every axis and conjugate".
A rational inner function (RIF) is the ratio p~/p for a stable p, with
the reflection optionally taken at degrees larger than deg(p); the extra
degrees contribute a monomial factor (e.g. z1*z2 = reflect(1, (1,1)) / 1).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (CertificateTooLarge, DegreeNotAttained, RootFindFailure,
                     ZeroPolynomial)
from .util import canonical_json, unit_circle_points

# a coefficient below this fraction of its polynomial's largest is zero: a
# degree drop in companion_roots, a degree not attained in PolyMD (random_rif
# draws, n1 <= 4, n2 <= 8, seeds 0-59, have top slabs >= 1.6e-6 of it)
DEGREE_DROP_REL_TOL = 1e-11
# two closed-form roots of one quadratic or cubic closer than this times
# its largest root are coalescing and go to eigvals (then Newton): the
# closed forms leave roots a gap g apart off by about eps R^2 / g at root
# scale R, which no Newton step in float improves
COALESCE_REL_TOL = 1e-4
# most slices per axis stability_check solves: 16,129 for d = 2, 14,641 for
# d = 3; d = 4 would take 1.77e6 (1.1-1.8 s), d = 5 2.1e8 (out of memory)
STABILITY_SLICE_CAP = 10 ** 5


def _as_coeff_tensor(coeffs):
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


@dataclass(frozen=True)
class PolyMD:
    """Dense polynomial in d >= 1 complex variables.

    Parameters
    ----------
    coeffs : array_like
        Finite complex tensor of shape (n_1+1, ..., n_d+1). The shape
        declares the degrees: each top coefficient slab must hold a
        modulus above DEGREE_DROP_REL_TOL times the tensor's largest.
    """

    coeffs: np.ndarray = field(repr=False)

    def __init__(self, coeffs):
        arr = _as_coeff_tensor(coeffs)
        if not np.isfinite(arr).all():
            raise ValueError("polynomial coefficients must be finite")
        scale = float(np.max(np.abs(arr))) if arr.size else 0.0
        if scale == 0.0:
            raise ZeroPolynomial("all coefficients vanish")
        tol = DEGREE_DROP_REL_TOL * scale
        for axis, n in enumerate(arr.shape):
            if n > 1 and np.max(np.abs(np.take(arr, n - 1, axis))) <= tol:
                raise DegreeNotAttained(f"declared degree {n - 1} in variable "
                                        f"{axis + 1} is not attained")
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self) -> int:
        return self.coeffs.ndim

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(s - 1 for s in self.coeffs.shape)

    def __call__(self, *z):
        return eval_poly(self, z)

    def coefficient_scale(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))


def reflect(p: PolyMD, degrees=None) -> PolyMD:
    """Reflection of p at the given degrees (default: the degrees of p).

    Reversing and conjugating the coefficient tensor is exact, so
    reflecting twice at the same degrees returns the input bit for bit.
    Degrees larger than deg(p) pad with an explicit monomial factor.
    """
    if degrees is None:
        degrees = p.degrees
    degrees = tuple(int(n) for n in degrees)
    if len(degrees) != p.dim:
        raise ValueError("degree tuple has wrong length")
    if any(n < d for n, d in zip(degrees, p.degrees)):
        raise ValueError(f"reflection degrees {degrees} below deg(p) {p.degrees}")
    arr = np.conj(p.coeffs[tuple(slice(None, None, -1) for _ in range(p.dim))])
    if degrees != p.degrees:
        arr = np.pad(arr, [(n - d, 0) for n, d in zip(degrees, p.degrees)])
    return PolyMD(arr)


def eval_poly(p: PolyMD, z):
    """Evaluate p at one point or at broadcastable coordinate arrays.

    ``z`` is a sequence of d scalars or d equal-shaped arrays.
    """
    zs = [np.asarray(zj, dtype=np.complex128) for zj in z]
    if len(zs) != p.dim:
        raise ValueError(f"expected {p.dim} coordinates, got {len(zs)}")
    return _eval_tensor(p.coeffs, zs)


def _eval_tensor(coeffs, zs):
    """The polynomial with coefficient tensor ``coeffs`` at broadcastable
    coordinate arrays ``zs``, one per variable: one Horner pass
    (``_polyval_rows``) per variable over the leading axis, first
    variable first, the order of slice_coeffs (so the full-tensor weight
    oracle of the tests matches the slice kernel to rounding)."""
    zs = np.broadcast_arrays(*zs)
    acc = coeffs.reshape(coeffs.shape + (1,) * zs[0].ndim)
    for z in zs:
        acc = _polyval_rows(acc, z)
    return acc[()]  # a scalar at one point


def _polyval_rows(rows, w):
    """Evaluate polynomials given coefficient-major: row j of ``rows``
    (k+1, ...) holds the z^j coefficients, broadcast against points w."""
    acc = np.empty(np.broadcast_shapes(rows.shape[1:], np.shape(w)),
                   dtype=np.result_type(rows, w))
    acc[...] = rows[-1]
    for k in range(len(rows) - 2, -1, -1):
        acc *= w  # in place: fresh temporaries of a large batch cost more
        acc += rows[k]
    return acc


def derivative_coeffs(coeffs, axis: int):
    a = axis - 1
    if not 0 <= a < coeffs.ndim:
        raise ValueError(f"axis {axis} out of range for {coeffs.ndim} variables")
    n = coeffs.shape[a]
    if n == 1:
        return np.zeros_like(coeffs)
    sl = [slice(None)] * coeffs.ndim
    sl[a] = slice(1, None)
    out = coeffs[tuple(sl)].copy()
    shape = [1] * coeffs.ndim
    shape[a] = n - 1
    out *= np.arange(1, n).reshape(shape)
    return out


def taylor_shift(coeffs, point):
    """Coefficient tensor of f(point + s), f with coefficient tensor
    ``coeffs``: on each axis one matrix B[a, i] = C(i, a) t^(i - a) of
    exact binomials, t that axis's coordinate of ``point``."""
    out = _as_coeff_tensor(coeffs)
    for axis, t in enumerate(point):
        n = out.shape[axis]
        shift = np.array([[math.comb(i, a) * complex(t) ** max(i - a, 0)
                           for i in range(n)] for a in range(n)])
        out = np.moveaxis(np.tensordot(shift, out, axes=(1, axis)), 0, axis)
    return out


# ---------------------------------------------------------------------------
# slice coefficient extraction and batched univariate root solving
# ---------------------------------------------------------------------------

def slice_coeffs(coeffs, points):
    """Coefficients of the one-variable slices of a polynomial in d >= 2
    variables in its last variable, the others frozen at ``points``.

    ``points`` is an (m, d-1) array whose rows hold the frozen
    coordinates in variable order; any other shape, or a tensor in one
    variable, raises ValueError.  Returns the slice rows coefficient-major,
    shape (n_d + 1, m): row j, the z_d^j coefficient, is one contiguous
    array over all points.  The first variable is contracted by one
    matmul against its (n_1 + 1, m) power rows; each later frozen one by
    Horner over its coefficient rows.  To free another variable, move it
    last (``stability_check``).
    """
    coeffs = _as_coeff_tensor(coeffs)
    d = coeffs.ndim
    pts = np.asarray(points, dtype=np.complex128)
    if d < 2 or pts.ndim != 2 or pts.shape[1] != d - 1:
        raise ValueError(f"slice_coeffs takes a tensor in d >= 2 variables "
                         f"and points (m, d - 1), not {coeffs.shape} and "
                         f"{pts.shape}")
    # the last axis first, then the frozen axes after the first, then the first
    moved = coeffs.transpose([d - 1, *range(1, d - 1), 0])
    acc = moved.reshape(-1, moved.shape[-1]) @ _powers(pts[:, 0],
                                                        moved.shape[-1])
    acc = acc.reshape(moved.shape[:-1] + (len(pts),))
    for k in range(1, d - 1):  # the next frozen axis is acc's second
        acc = _polyval_rows(np.moveaxis(acc, 1, 0), pts[:, k])
    return acc


def _powers(z, n):
    """The (n, m) rows z**j, j < n, for points z (m,)."""
    out = np.empty((n, len(z)), dtype=np.complex128)
    out[0] = 1.0
    for j in range(1, n):
        np.multiply(out[j - 1], z, out=out[j])
    return out


def companion_roots(batch_coeffs):
    """Roots of a batch of univariate polynomials.

    ``batch_coeffs`` has shape (k+1, m), coefficient-major as
    slice_coeffs returns it: column i holds polynomial i, constant term
    first.  Columns are trimmed individually: trailing coefficients below
    DEGREE_DROP_REL_TOL times the column maximum are treated as zero
    (degree drop).  Returns a (k, m) array: column i holds the deg_i
    roots of polynomial i in its first rows and NaN after them.

    By effective degree: 1 is solved directly, 2 by the stable quadratic
    formula and 3 by Cardano's formula plus one Newton step.  Degree 4
    and up, and quadratics and cubics with two closed-form roots closer
    than COALESCE_REL_TOL times their largest (roots about to coalesce),
    get the eigenvalues of the companion matrix.  Those split an exact
    double root by about sqrt(eps), where a closed form returns it twice
    and the Clark weight |p| / |d/dz h| there as 0/0.  A batch whose
    columns all keep their full degree is one class, solved in place in
    the output.  The slice kernel calls the solver below,
    ``_solve_columns``, with its own |rows|, and takes |d/dz h| at the
    closed-form roots from it.
    """
    c = np.asarray(batch_coeffs, dtype=np.complex128)
    size = np.abs(c)
    out = np.empty((c.shape[0] - 1, c.shape[1]), dtype=np.complex128)
    _solve_columns(c, size, np.max(size, axis=0), out, np.empty(out.shape))
    return out


def _solve_columns(c, size, scale, out, dout):
    """``companion_roots`` of ``c`` (k+1, m) into ``out`` (k, m), given |c|
    as ``size`` and the column scale (m,) the degree-drop tolerance is
    relative to; an infinite scale leaves its column NaN.  Into ``dout``
    goes |h'(r_a)| = |c_n| prod_{b != a} |r_a - r_b| at each root r_a from
    what the formula holds: |c_1|, |c_2| |d| (``_quadratic_roots``), or
    from degree 3 each gap of the final roots, formed once.  A class that
    fills the block, such as the whole block when row k clears the
    tolerance in every column, is solved in place; another is gathered
    and scattered back by indexing.  Returns (eig, full): the columns
    ``_eigvals`` solved, to be Newton-polished (their ``dout`` is the
    closed form's), and whether every column kept its full degree (no
    root is NaN)."""
    k, m = out.shape
    tol = DEGREE_DROP_REL_TOL * scale
    full = bool(np.all(size[k] > tol))  # an infinite scale compares False
    classes = [(k, None)] if full and k else []  # None: fills the block
    if not full:  # a degree drop or a zero column: NaN padding
        eff_deg = np.full(m, -1)  # the last coefficient above tol
        for j in range(k + 1):
            eff_deg[size[j] > tol] = j
        out[...] = dout[...] = np.nan
        for deg in range(1, k + 1):
            idx = np.flatnonzero(eff_deg == deg)
            if len(idx):
                classes.append((deg, None if len(idx) == m else idx))
    eig = []
    for deg, idx in classes:
        if idx is None:
            cols, lead, r, dh = c[:deg + 1], size[deg], out[:deg], dout[:deg]
        else:
            cols, lead = c[:deg + 1, idx], size[deg, idx]
            r = np.empty((deg, len(idx)), dtype=np.complex128)
            dh = np.empty(r.shape)
        if deg == 1:
            np.negative(np.divide(cols[0], cols[1], out=r[0]), out=r[0])
            dh[0] = lead
            tight = None
        elif deg == 2:
            tight = _quadratic_roots(cols, lead, r, dh)
        else:
            tight = _cubic_roots(cols, r) if deg == 3 else np.ones(
                r.shape[1], dtype=bool)
        if tight is not None and tight.any():
            r[:, tight] = _eigvals(cols[:deg, tight] / cols[deg, tight])
            eig.append(np.flatnonzero(tight) if idx is None else idx[tight])
        if deg >= 3:
            dh[...] = lead
            for a in range(deg):
                for b in range(a + 1, deg):
                    gap = np.abs(r[a] - r[b])
                    dh[a] *= gap
                    dh[b] *= gap
        if idx is not None:
            out[:deg, idx], dout[:deg, idx] = r, dh
    return (np.concatenate(eig) if eig else np.zeros(0, dtype=int)), full


def _quadratic_roots(cols, lead, r, dh):
    """Roots of c_0 + c_1 z + c_2 z^2 from rows ``cols`` (3, n) into ``r``
    (2, n), |h'| at them into ``dh`` (2, n) given |c_2| as ``lead``, and
    which columns have coalescing roots.  On the monic z^2 + b z + c the
    square root d of the discriminant takes the sign that makes |b + d|
    largest, so r1 = -(b + d) / 2 has no cancellation and r2 = c / r1.
    The roots are d apart, so |h'| = |c_2| |d| at both."""
    c = np.divide(cols[0], cols[2], out=r[1])
    b = np.divide(cols[1], cols[2], out=r[0])
    d = np.sqrt(b * b - 4.0 * c)
    d = np.where((b.conjugate() * d).real < 0.0, -d, d)
    gap = np.abs(d)
    r1 = np.multiply(b + d, -0.5, out=r[0])
    # r1 = 0 only for b = c = 0, a coalescing double root at 0: r2 stays c
    np.divide(c, r1, out=r[1], where=r1 != 0.0)
    dh[...] = lead * gap
    return gap <= COALESCE_REL_TOL * np.abs(r1)  # |r1| >= |r2|


_OMEGA = np.exp(2j * np.pi / 3.0)


def _cubic_roots(cols, r):
    """Roots of c_0 + c_1 z + c_2 z^2 + c_3 z^3 from rows ``cols`` (4, n)
    into ``r`` (3, n), and which columns have coalescing roots.  On the
    monic z^3 + a z^2 + b z + c, Cardano on the depressed cubic
    t^3 + p t + q (z = t - a/3) with u^3 = -(q/2 + s), s^2 = (q/2)^2 +
    (p/3)^3 and the sign of s that makes |u| largest, then one Newton
    step on every root of the columns without coalescing roots; the
    coalescing test reads the roots before the step."""
    c, b, a = cols[:3] / cols[3]
    shift = a / 3.0
    p3 = (b - a * shift) / 3.0
    w = 0.5 * (c + shift * (2.0 * shift * shift - b))
    s = np.sqrt(w * w + p3 ** 3)
    s = np.where((w.conjugate() * s).real < 0.0, -s, s)
    u3 = -(w + s)
    u = np.cbrt(np.abs(u3)) * unit_circle_points(np.angle(u3) / 3.0)
    # u = 0 only for p = q = 0, a triple root, where v stays 0
    v = np.divide(-p3, u, out=np.zeros_like(u), where=u != 0.0)
    r[0], r[1], r[2] = (u + v, _OMEGA * u + _OMEGA.conjugate() * v,
                        _OMEGA.conjugate() * u + _OMEGA * v)
    r -= shift
    gap = [np.abs(r[0] - r[1]), np.abs(r[0] - r[2]), np.abs(r[1] - r[2])]
    size = np.abs(r)
    tight = np.minimum(np.minimum(gap[0], gap[1]), gap[2]) \
        <= COALESCE_REL_TOL * np.maximum(np.maximum(size[0], size[1]), size[2])
    loose = slice(None) if not tight.any() else ~tight
    a, b, c, zt = a[loose], b[loose], c[loose], r[:, loose]
    f, fp = zt + a, 3.0 * zt  # f = h / c_3 and fp = h' / c_3 by Horner
    fp += 2.0 * a
    for acc, coef in ((f, b), (f, c), (fp, b)):
        acc *= zt
        acc += coef
    step = fp != 0.0
    f[~step] = 0.0
    r[:, loose] = zt - np.divide(f, fp, out=f, where=step)
    return tight


def _eigvals(monic):
    """Companion-matrix eigenvalues (deg, m) of monic rows (deg, m): one
    matrix per column given, none for the others."""
    deg, m = monic.shape
    comp = np.zeros((m, deg, deg), dtype=np.complex128)
    comp[:, 1:, :-1] = np.eye(deg - 1)
    comp[:, :, -1] = -monic.T
    try:
        return np.linalg.eigvals(comp).T
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RootFindFailure(str(exc)) from exc


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def stability_check(p: PolyMD) -> float:
    """The least root modulus of p's one-variable slices over a grid (inf
    when no slice has a root).  The caller judges it: above 1, no slice
    on the grid vanishes in the closed polydisk, and
    ``clark.build_measure`` refuses a three-variable p unless it exceeds
    1 + ``levelset.UNIMODULAR_TOL``.

    The other variables are frozen on one closed-disk grid (``grid_n``
    radii including 0 and 1, 64 in up to two variables and 6 in more,
    and ``4 * grid_n`` angles), formed once; each variable in turn is
    moved last (``slice_coeffs`` frees the last) and the roots of its
    slices are found.  A univariate p is its own one slice.
    The certificate is heuristic: zeros between grid nodes fool it (phi_3
    reads 1, rotated to a torus zero (e^{0.1i}, e^{0.2i}, e^{0.3i}) 1.0029),
    but the grid includes the full boundary torus where zeros of an
    intended denominator would matter most.  A grid of more than
    STABILITY_SLICE_CAP slices per axis (p in four or more variables)
    raises CertificateTooLarge before any is formed.
    """
    grid_n = 64 if p.dim <= 2 else 6
    n_ang = 4 * grid_n
    radii = np.linspace(0.0, 1.0, grid_n)
    angles = np.exp(2j * np.pi * np.arange(n_ang) / n_ang)
    # {0} and the circles of the positive radii: each grid point once
    disk = np.append(0.0, radii[1:, None] * angles)
    slices = len(disk) ** (p.dim - 1)
    if slices > STABILITY_SLICE_CAP:
        raise CertificateTooLarge(
            f"{slices} slices per axis exceed STABILITY_SLICE_CAP = "
            f"{STABILITY_SLICE_CAP}")

    if p.dim == 1:  # nothing to freeze: p is its own slice
        rows = [p.coeffs[:, None]]
    else:
        grids = np.meshgrid(*([disk] * (p.dim - 1)), indexing="ij")
        frozen = np.stack([g.ravel() for g in grids], axis=-1)
        rows = (slice_coeffs(np.moveaxis(p.coeffs, axis, -1), frozen)
                for axis in range(p.dim) if p.coeffs.shape[axis] > 1)
    min_mod = np.inf
    for roots in map(companion_roots, rows):
        min_mod = float(np.min(np.abs(roots), initial=min_mod,
                               where=~np.isnan(roots)))
    return min_mod


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def poly_to_json_obj(p: PolyMD) -> dict:
    """The record of p for ``util.canonical_json``, which writes each
    coefficient, row-major, as [re, im]."""
    return {"degrees": list(p.degrees), "coeffs": p.coeffs.ravel()}


def poly_to_json(p: PolyMD) -> str:
    return canonical_json(poly_to_json_obj(p))


def poly_from_json_obj(obj: dict) -> PolyMD:
    """The polynomial of {"degrees": [...], "coeffs": [[re, im], ...]}
    (row-major); ValueError on any other record."""
    degrees, entries = json_fields(obj, ("degrees", "coeffs"),
                                   "polynomial record")
    shape = tuple(n + 1 for n in json_degrees(degrees, 0))
    if not isinstance(entries, list) or not all(map(finite_pair, entries)):
        raise ValueError("polynomial coeffs must be a list of finite "
                         "[re, im] pairs")
    if len(entries) != int(np.prod(shape)):
        raise ValueError("coefficient count does not match degrees")
    flat = np.array([complex(re, im) for re, im in entries],
                    dtype=np.complex128)
    return PolyMD(flat.reshape(shape, order="C"))


def json_fields(obj, keys, what):
    """The values of ``keys`` in the JSON object ``obj``, in that order;
    ValueError naming ``what`` unless obj is a dict holding them all."""
    if not isinstance(obj, dict) or not all(key in obj for key in keys):
        raise ValueError(f"{what} needs the keys {', '.join(keys)}")
    return [obj[key] for key in keys]


def json_degrees(value, least: int) -> tuple[int, ...]:
    """A JSON degree list as a tuple of ints, each at least ``least``;
    ValueError for anything else (a scalar, a bool, 1.7)."""
    if not isinstance(value, list) or not value or not all(
            type(n) is int and n >= least for n in value):
        raise ValueError(f"degrees must be a non-empty list of integers "
                         f">= {least}, got {value!r}")
    return tuple(value)


def finite_pair(value) -> bool:
    """Whether value is a JSON pair [re, im] of numbers (not bools) within
    the range of a finite double.  JSON may hold an integral double such
    as 0.0 as the integer 0; the bound keeps out NaN, the infinities and
    integers beyond any double."""
    return isinstance(value, list) and len(value) == 2 and all(
        type(x) in (int, float) and abs(x) <= sys.float_info.max
        for x in value)


def poly_from_json(text: str) -> PolyMD:
    return poly_from_json_obj(json.loads(text))


# ---------------------------------------------------------------------------
# rational inner functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rif:
    """Rational inner function numerator/denominator pair.

    ``den`` is the (stable) denominator polynomial and ``num`` its
    reflection at ``degrees``, so the function is num/den.  Degrees must
    be at least 1 in every variable; padding beyond deg(den) realizes
    monomial factors.
    """

    den: PolyMD
    num: PolyMD = field(repr=False)
    degrees: tuple[int, ...]

    def __init__(self, den: PolyMD, degrees=None):
        if degrees is None:
            degrees = den.degrees
        degrees = tuple(int(n) for n in degrees)
        if any(n < 1 for n in degrees):
            raise ValueError(
                "inner function must be nonconstant in every variable "
                f"(got degrees {degrees})"
            )
        num = reflect(den, degrees)
        den_full = den.coeffs.copy() if degrees == den.degrees else np.pad(
            den.coeffs, [(0, n - d) for n, d in zip(degrees, den.degrees)])
        den_full.flags.writeable = False
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "_den_full", den_full)

    @property
    def dim(self) -> int:
        return self.den.dim

    @cached_property
    def certificate(self) -> float:
        """``stability_check(den)``, formed on the first read and kept."""
        return stability_check(self.den)

    def __call__(self, *z):
        return eval_poly(self.num, z) / eval_poly(self.den, z)

    def level_coeffs(self, alpha: complex) -> np.ndarray:
        """Coefficient tensor of num - alpha * den, padded to ``degrees``."""
        return self.num.coeffs - alpha * self._den_full
