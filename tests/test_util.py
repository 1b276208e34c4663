import binascii
import importlib
import json

import numpy as np
import pytest

import rifclark
from rifclark.util import (_format_float, canonical_json, unit_circle_points,
                           unit_roots)


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


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_bytes_like_values_are_written_as_base64(wrap):
    raw = np.linspace(-1.0, 1.0, 97).tobytes()
    text = binascii.b2a_base64(raw, newline=False).decode("ascii")
    assert canonical_json(wrap(raw)) == json.dumps(text)
    assert canonical_json({"k": [wrap(raw), wrap(b"")]}) \
        == json.dumps({"k": [text, ""]}, separators=(",", ":"))


@pytest.mark.parametrize("n", [1, 3, 5, 256, 65536])
def test_unit_roots_is_the_trig_grid_read_only(n):
    z = unit_roots(n)
    want = unit_circle_points(2 * np.pi * np.arange(n) / n)
    assert np.array_equal(z.view(np.uint64), want.view(np.uint64))
    assert not z.flags.writeable
    with pytest.raises(ValueError):
        z[0] = 0.0
    with pytest.raises(ValueError):
        z.flags.writeable = True
    assert unit_roots(n) is z


def test_unit_roots_cache_is_bounded():
    for n in range(1, 21):
        unit_roots(7 * n)
    info = unit_roots.cache_info()
    assert 0 < info.currsize <= info.maxsize < 20
    with pytest.raises(ValueError):
        unit_roots(0)
