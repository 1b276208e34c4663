"""Small shared helpers: angles, unit-circle points, canonical JSON."""

from __future__ import annotations

import functools
import json

import numpy as np

TWO_PI = 2.0 * np.pi
CIRCLE_TOL = 1e-9  # largest | |z| - 1 | of an alpha or line tau taken in


def angular_distance(a, b):
    """Angular metric on the unit circle, |arg(a * conj(b))|, elementwise."""
    return np.abs(np.angle(np.asarray(a) * np.conj(np.asarray(b))))


def on_circle(z) -> bool:
    """Whether z is a point of the circle to CIRCLE_TOL; False for NaN."""
    return abs(abs(z) - 1.0) <= CIRCLE_TOL


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


def _format_float(x):
    # %.17g round-trips every IEEE double and is locale-independent,
    # which keeps repeated CLI runs byte-identical.
    if isinstance(x, (np.floating,)):
        x = float(x)
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    if x == 0.0 and np.signbit(x):
        return "-0.0"  # "%.17g" gives "-0", which JSON reads as integer 0
    return "%.17g" % x


def _canonical(obj, parts):
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_format_float(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        _canonical([obj.real, obj.imag], parts)
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(obj):
            if not isinstance(key, str):
                raise TypeError("canonical JSON keys must be strings")
            if i:
                parts.append(",")
            parts.append(json.dumps(key))
            parts.append(":")
            _canonical(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, np.ndarray):
        _canonical(obj.tolist(), parts)
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _canonical(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r} canonically")


def canonical_json(obj):
    """Serialize to JSON with fixed key order and %.17g float formatting.

    Key order is the dict insertion order of the caller, so building the
    payload the same way always yields byte-identical text.
    """
    parts: list[str] = []
    _canonical(obj, parts)
    return "".join(parts)
