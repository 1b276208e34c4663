"""Small shared helpers: angles, unit-circle points, canonical JSON."""

from __future__ import annotations

import json

import numpy as np

TWO_PI = 2.0 * np.pi


def angular_distance(a, b):
    """Angular metric on the unit circle, |arg(a * conj(b))|, elementwise."""
    return np.abs(np.angle(np.asarray(a) * np.conj(np.asarray(b))))


def unit_circle_points(n):
    """n equispaced points exp(2*pi*i*k/n), k = 0..n-1, with their angles."""
    theta = TWO_PI * np.arange(n) / n
    return theta, np.exp(1j * theta)


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


def _quote(s, parts):
    """Append the JSON string literal of s, as json.dumps writes it.

    Printable ASCII without a quote or a backslash has nothing to escape,
    so it goes in as is: json.dumps would rescan the multi-MB base64
    payloads of a serialized measure only to copy them.
    """
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        parts += ('"', s, '"')
    else:
        parts.append(json.dumps(s))


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
        _quote(obj, parts)
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(obj):
            if not isinstance(key, str):
                raise TypeError("canonical JSON keys must be strings")
            if i:
                parts.append(",")
            _quote(key, parts)
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
