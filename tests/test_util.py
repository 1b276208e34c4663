import binascii
import importlib
import json

import numpy as np
import pytest

import rifclark
from rifclark.util import _format_array, _format_float, canonical_json


def _reference(a):
    """Element-by-element canonical text, nested like tolist()."""
    if isinstance(a, list):
        return "[" + ",".join(_reference(x) for x in a) + "]"
    if isinstance(a, complex):
        return f"[{_format_float(a.real)},{_format_float(a.imag)}]"
    return _format_float(a)


SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                     2.2250738585072014e-308 / 3, 1e300, -1e300, 0.1, -2.5,
                     1.2345678901234567e17])


def _complex(re, im):
    """re + i im without arithmetic, which would turn inf * 1j into NaN."""
    re, im = np.broadcast_arrays(re, im)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


@pytest.mark.parametrize("a", [
    SPECIALS,
    SPECIALS.reshape(3, 4),
    _complex(SPECIALS[:, None], SPECIALS[None, :]),
    np.array([complex(1.0, -0.0), complex(-0.0, -0.0), complex(np.nan, -0.0),
              complex(-np.inf, 0.0)]),
    _complex(SPECIALS[:6, None], -SPECIALS[None, 6:]).T[:, ::2],
    np.array(-0.0),
    np.array(complex(0.5, -0.0)),
    np.full((2, 3, 2), -0.0),
], ids=["float", "float2d", "complex2d", "signed_zero_imag", "strided",
        "scalar", "complex_scalar", "zeros3d"])
def test_fast_array_text_matches_format_float(a):
    assert _format_array(a) == _reference(a.tolist())
    assert canonical_json({"a": a}) == '{"a":' + _reference(a.tolist()) + "}"


def test_every_public_name_resolves():
    for name in rifclark.__all__:
        assert getattr(rifclark, name) is not None
    for name in rifclark._SUBMODULES:
        module = importlib.import_module(f"rifclark.{name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), (name, attr)


@pytest.mark.parametrize("s", [
    "", '"', "\\", "\t", "\x01", "\x7f", "caf\u00e9 \u2603", "a\"b\\c",
    binascii.b2a_base64(np.linspace(-1.0, 1.0, 97).tobytes(),
                        newline=False).decode("ascii"),
], ids=["empty", "quote", "backslash", "tab", "control", "delete",
        "non_ascii", "mixed", "base64"])
def test_string_text_matches_json_dumps(s):
    assert canonical_json(s) == json.dumps(s)
    assert canonical_json({s: [s]}) == json.dumps({s: [s]},
                                                  separators=(",", ":"))
