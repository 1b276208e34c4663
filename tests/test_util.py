import binascii
import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rifclark
from rifclark.util import canonical_json, unit_circle_points, unit_roots

SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                     2.2250738585072014e-308 / 3, 1e300, -1e300, 0.1, -2.5,
                     1.2345678901234567e17])


def _complex(re, im):
    """re + i im without arithmetic, which would turn inf * 1j into NaN."""
    re, im = np.broadcast_arrays(re, im)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _assert_same_doubles(text, a):
    """The JSON text decodes to the doubles of the array a, bit for bit, a
    complex element as the pair [re, im]; a NaN reads back as NaN (JSON
    has one NaN, so its payload and sign are not kept)."""
    want = np.stack((a.real, a.imag), axis=-1) if np.iscomplexobj(a) else a
    got = np.array(json.loads(text), dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64),
                          want[~nan].view(np.uint64))


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
def test_array_text_decodes_to_the_same_doubles(a):
    # as an array, and as the Python floats and complex numbers of tolist()
    _assert_same_doubles(canonical_json(a), a)
    _assert_same_doubles(canonical_json(a.tolist()), a)


# any double: its 64 bits drawn at random, or one of the special values
DOUBLE_BITS = st.one_of(st.integers(0, 2 ** 64 - 1),
                        st.sampled_from(SPECIALS.view(np.uint64).tolist()))


@given(st.lists(DOUBLE_BITS, min_size=24, max_size=24), st.booleans(),
       st.sampled_from(["scalar", "2d", "strided"]))
@settings(max_examples=150, deadline=None)
def test_random_doubles_round_trip_bit_for_bit(bits, is_complex, layout):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    a = _complex(x[:12], x[12:]) if is_complex else x
    a = {"scalar": a[:1].reshape(()), "2d": a.reshape(4, -1),
         "strided": a.reshape(4, -1)[::-1, ::2].T}[layout]
    _assert_same_doubles(canonical_json(a), a)


def test_every_public_name_resolves():
    for name in rifclark.__all__:
        assert getattr(rifclark, name) is not None
    for name in rifclark._SUBMODULES:
        module = importlib.import_module(f"rifclark.{name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), (name, attr)


def test_dir_lists_the_public_names():
    # the lazily imported submodules are listed whether loaded or not
    assert dir(rifclark) == sorted(rifclark.__all__)


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


def test_numpy_scalars_are_written_as_python_ones():
    # np.float64 subclasses float and needs no hook; these go through it
    obj = {"n": np.int64(-3), "x": np.float32(0.5), "b": np.bool_(True),
           "z": np.complex64(1.5 - 2j)}
    assert canonical_json(obj) == '{"n":-3,"x":0.5,"b":true,"z":[1.5,-2.0]}'


@pytest.mark.parametrize("value", [b"\x00\xff", bytearray(b"\x00\xff"),
                                   memoryview(b"\x00\xff")],
                         ids=["bytes", "bytearray", "memoryview"])
def test_bytes_like_values_are_refused(value):
    # no bytes reach a file: a measure file holds its recipe, not arrays
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical_json({"data": value})


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
