"""Packed-bit storage of binary codes."""

import numpy as np
import pytest

from dkph.codes import pack_bits, unpack_bits
from dkph.exceptions import ShapeError


@pytest.mark.parametrize("k", [1, 7, 8, 9, 16, 20, 64, 65])
def test_unpack_inverts_pack(k):
    bits = np.where(np.random.default_rng(k).random((5, k)) > 0.5, 1, -1).astype(np.int8)
    got = unpack_bits(pack_bits(bits), k)
    assert got.dtype == np.int8
    np.testing.assert_array_equal(got, bits)


# rows packed from 16-bit codes: 20 would invent four -1 bits per row, 4 would
# drop twelve
@pytest.mark.parametrize("k", [20, 4, 24, 8])
def test_unpack_refuses_rows_of_another_width(k):
    packed = pack_bits(np.ones((3, 16), dtype=np.int8))
    with pytest.raises(ShapeError, match=f"{k}-bit codes"):
        unpack_bits(packed, k)


@pytest.mark.parametrize("packed", [np.zeros(2, dtype=np.uint8),
                                    np.zeros((1, 3, 2), dtype=np.uint8),
                                    np.zeros((3, 2), dtype=np.int64)],
                         ids=["1-D", "3-D", "int64"])
def test_unpack_refuses_what_pack_does_not_write(packed):
    with pytest.raises(ShapeError, match="16-bit codes"):
        unpack_bits(packed, 16)
