"""Small shared helpers: angles, the unimodular test and projection,
unit-circle points, canonical JSON."""

from __future__ import annotations

import functools
import json

import numpy as np

TWO_PI = 2.0 * np.pi
# largest | |z| - 1 | of an alpha or line tau taken in (and then projected):
# loose enough for a value printed to ten significant digits
CIRCLE_TOL = 1e-9


def angular_distance(a, b):
    """Angular metric on the unit circle, |arg(a * conj(b))|, elementwise."""
    return np.abs(np.angle(np.asarray(a) * np.conj(np.asarray(b))))


def on_circle(z) -> bool:
    """Whether z is a point of the circle to CIRCLE_TOL; False for NaN."""
    return abs(abs(z) - 1.0) <= CIRCLE_TOL


def unimodular_alpha(alpha) -> complex:
    """``alpha`` projected onto the circle, alpha / |alpha| until |alpha|
    is 1.0 exactly, so that projecting it again keeps its bits (a measure
    file's rebuild needs that); ValueError off it (``on_circle``).
    One division leaves |alpha| != 1.0 for about 1 in 20 inputs off the
    circle; a second or third ended every case of 3e6 random draws."""
    alpha = complex(alpha)
    if not on_circle(alpha):
        raise ValueError("alpha must be unimodular")
    for _ in range(4):
        alpha /= abs(alpha)
        if abs(alpha) == 1.0:
            break
    return alpha


def unit_circle_points(theta):
    """e^{i theta} of real angles, written as cos + i sin into one complex
    array: about half the time of np.exp(1j * theta), with its values."""
    theta = np.asarray(theta, dtype=float)
    z = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    return z


@functools.lru_cache(maxsize=16)
def unit_roots(n):
    """The n-th roots of unity unit_circle_points(2 pi k / n), k < n, bit
    for bit, as one read-only table per n that every uniform grid shares;
    ValueError for n < 1.  The cache keeps the 16 sizes used last; a table
    holds 16 n bytes (1 MB at n = 65536), so at most 16 MB for grids up
    to that size."""
    if n < 1:
        raise ValueError(f"grid_n must be at least 1, got {n}")
    z = unit_circle_points(TWO_PI * np.arange(n) / n)
    z.flags.writeable = False
    return z[:]  # a view of a read-only array cannot be made writable


def grid_shift(angles, n):
    """The shift s of the grid 2 pi k / n + s farthest from all ``angles``:
    the midpoint of the widest gap between their residues modulo the step
    (rounded to 12 digits: pi / n exactly for none, one or equal ones)."""
    step = TWO_PI / n
    f = np.asarray(angles, dtype=float) / step if len(angles) else np.zeros(1)
    f = np.sort(np.round(f % 1.0, 12) % 1.0)
    gaps = np.diff(np.append(f, f[0] + 1.0))
    return (f + 0.5 * gaps)[np.argmax(gaps)] * step


def _hook(obj):
    # arrays as nested lists, complex values as [re, im] pairs, numpy
    # scalars as Python ones; anything else, bytes among them, is refused
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = np.stack((obj.real, obj.imag), axis=-1)
        return obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        return [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj):
    """JSON text with no spaces, keys in the caller's insertion order and
    floats in their shortest round-trip form (``repr``, exact and
    locale-independent; NaN and the infinities as NaN, Infinity and
    -Infinity), so building the payload the same way always yields
    byte-identical text."""
    return json.dumps(obj, separators=(",", ":"), default=_hook)
