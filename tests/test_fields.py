"""LGF1 files: bit-exact round trip, and damaged files fail only by name."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lingrad.errors import InvalidFieldError, ShapeMismatchError
from lingrad.fields import read_lgf, write_lgf

_SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 6))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("lgf") / "f.lgf"


@settings(max_examples=200, deadline=None)
@given(values=_SHAPES.flatmap(lambda s: hnp.arrays(np.float64, s)),
       h=st.floats(allow_nan=True, allow_infinity=True))
def test_lgf_round_trip_is_bit_exact(path, values, h):
    write_lgf(path, values, h)
    back, h_back = read_lgf(path)
    assert back.shape == values.shape
    assert back.tobytes() == values.tobytes()
    assert struct.pack("<d", h_back) == struct.pack("<d", h)


@st.composite
def damaged(draw):
    """The bytes of a valid LGF1 file, truncated, extended or byte-flipped."""
    n, nx, ny = draw(_SHAPES)
    raw = (b"LGF1" + struct.pack("<IIId", n, nx, ny, 0.125)
           + np.arange(n * nx * ny, dtype="<f8").tobytes())
    how = draw(st.sampled_from(["truncate", "extend", "flip"]))
    if how == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if how == "extend":
        return raw + draw(st.binary(min_size=1, max_size=32))
    out = bytearray(raw)
    for _ in range(draw(st.integers(1, 4))):
        # mostly the 24 header bytes, where the reader makes its decisions
        pos = draw(st.integers(0, min(len(raw), 24) - 1)
                   | st.integers(0, len(raw) - 1))
        out[pos] ^= draw(st.integers(1, 255))
    return bytes(out)


@settings(max_examples=400, deadline=None)
@given(raw=damaged())
def test_damaged_lgf_reads_back_or_raises_invalid_field(path, raw):
    path.write_bytes(raw)
    try:
        values, _ = read_lgf(path)
    except InvalidFieldError:
        return
    assert values.ndim == 3 and values.dtype == np.float64
    assert 24 + values.nbytes == len(raw)



def test_write_lgf_promotes_a_1d_field_and_rejects_other_ranks(tmp_path):
    # a 1-D grid's (n_channels, nx) array is stored with ny = 1
    values = np.arange(6.0).reshape(2, 3)
    write_lgf(tmp_path / "f.lgf", values, 0.5)
    back, _ = read_lgf(tmp_path / "f.lgf")
    assert back.shape == (2, 3, 1) and np.array_equal(back[..., 0], values)
    for bad in (np.zeros(3), np.zeros((1, 2, 2, 2))):
        with pytest.raises(ShapeMismatchError, match="LGF1 stores"):
            write_lgf(tmp_path / "g.lgf", bad, 0.5)
    assert not (tmp_path / "g.lgf").exists()
