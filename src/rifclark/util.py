"""Small shared helpers: angles, unit-circle checks, canonical JSON."""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def angular_distance(a, b):
    """Angular metric on the unit circle, |arg(a * conj(b))|, elementwise."""
    return np.abs(np.angle(np.asarray(a) * np.conj(np.asarray(b))))


def unit_circle_points(n):
    """n equispaced points exp(2*pi*i*k/n), k = 0..n-1, with their angles."""
    theta = TWO_PI * np.arange(n) / n
    return theta, np.exp(1j * theta)


def is_unimodular(z, tol=1e-6):
    return np.abs(np.abs(z) - 1.0) < tol


def normalize_unimodular(z):
    """Project a nonzero complex number onto the unit circle."""
    z = complex(z)
    r = abs(z)
    if r == 0.0:
        raise ValueError("cannot normalize 0 to the unit circle")
    return z / r


def as_complex(value):
    """Coerce scalars / 2-sequences [re, im] to a Python complex."""
    if isinstance(value, complex):
        return value
    if isinstance(value, (int, float, np.floating, np.integer)):
        return complex(value)
    if isinstance(value, np.complexfloating):
        return complex(value)
    seq = list(value)
    if len(seq) != 2:
        raise ValueError(f"expected [re, im] pair, got {value!r}")
    return complex(float(seq[0]), float(seq[1]))


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


def _format_array(a):
    """Canonical text of a float or complex array, nested like tolist().

    Same bytes as _format_float on every element (a complex one is
    [re, im]).  Each row along the first axis is one %-format of a
    nested template; only rows holding -0.0, NaN or an infinity, which
    "%.17g" spells differently, go through _format_float.
    """
    if a.dtype.kind == "c":
        a = np.ascontiguousarray(a).view(a.real.dtype).reshape(a.shape + (2,))
    rows = a.reshape(a.shape[0] if a.ndim else 1, -1)
    tmpl = "%s"
    for n in reversed(a.shape[1:]):
        tmpl = "[" + ",".join([tmpl] * n) + "]"
    fast = tmpl.replace("%s", "%.17g")
    text = [fast % tuple(r) for r in rows.tolist()]
    odd = ~np.isfinite(rows) | ((rows == 0.0) & np.signbit(rows))
    for i in np.nonzero(odd.any(axis=1))[0].tolist():
        text[i] = tmpl % tuple(map(_format_float, rows[i].tolist()))
    return text[0] if a.ndim == 0 else "[" + ",".join(text) + "]"


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
        import json as _json

        parts.append(_json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(obj):
            if not isinstance(key, str):
                raise TypeError("canonical JSON keys must be strings")
            if i:
                parts.append(",")
            import json as _json

            parts.append(_json.dumps(key))
            parts.append(":")
            _canonical(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind in "fc" and obj.size:
            parts.append(_format_array(obj))
        else:
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
