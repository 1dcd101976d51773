"""Packed-bit storage of binary codes."""

import numpy as np
import pytest

from dkph import serial
from dkph.codes import BinaryCode, check_packed, pack_bits, unpack_bits
from dkph.exceptions import ShapeError
from dkph.retrieval import CodeIndex, evaluate_packed


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


@pytest.mark.parametrize("k", [0, -8, True, 8.0, np.float64(8), np.array([8]), "8"],
                         ids=["0", "negative", "bool", "float", "numpy-float", "1-element",
                              "str"])
def test_a_code_width_is_a_scalar_integer_of_at_least_one(k):
    with pytest.raises(ValueError, match="code width K"):
        check_packed(np.zeros((2, 1), dtype=np.uint8), k)


def _with_a_pad_bit(k):
    """Three rows of k-bit codes, the second with its first pad bit set."""
    rows = pack_bits(np.ones((3, k), dtype=np.int8))
    rows[1, -1] |= 1 << (k % 8)
    return rows


def _load_codes(rows, k, tmp_path):
    # written past save_codes, which would refuse the rows
    serial.save_arrays(tmp_path / "x.codes", {"packed": rows, "k": np.int64(k)})
    serial.load_codes(tmp_path / "x.codes")


def _evaluate_packed(rows, k, tmp_path):
    idx = CodeIndex.from_bits(np.ones((3, k), dtype=np.int8), labels=[0, 1, 0])
    evaluate_packed(rows, [0, 1, 0], idx)


READERS = {
    "unpack_bits": lambda rows, k, tmp_path: unpack_bits(rows, k),
    "save_codes": lambda rows, k, tmp_path: serial.save_codes(tmp_path / "x.codes", rows, k),
    "load_codes": _load_codes,
    "CodeIndex": lambda rows, k, tmp_path: CodeIndex(packed=rows, ids=np.arange(3), k=k),
    "evaluate_packed": _evaluate_packed,
}


# a set pad bit would count in every XOR distance of its row
@pytest.mark.parametrize("k", [6, 12])
@pytest.mark.parametrize("reader", list(READERS))
def test_every_reader_of_packed_rows_refuses_a_set_pad_bit(reader, k, tmp_path):
    with pytest.raises(ValueError, match=f"pad bits past bit {k}") as err:
        READERS[reader](_with_a_pad_bit(k), k, tmp_path)
    assert err.type is ValueError
    if reader == "save_codes":
        assert not (tmp_path / "x.codes").exists()


@pytest.mark.parametrize("value", [257, 1.5, -255])
def test_binary_code_refuses_a_value_an_int8_cast_would_make_one(value):
    # int8(257) == int8(-255) == 1 and int8(1.5) == 1
    with pytest.raises(ValueError, match="-1,\\+1"):
        BinaryCode(np.array([1, value, -1]))


def test_binary_code_keeps_int8_bits_and_their_packed_row():
    code = BinaryCode(np.array([1.0, -1.0, 1.0]))
    assert code.bits.dtype == np.int8 and code.bits.tolist() == [1, -1, 1] and code.k == 3
    np.testing.assert_array_equal(code.packed, [0b101])


@pytest.mark.parametrize("bits", [np.ones((2, 9, 3)), np.ones(5), np.ones((2, 0))],
                         ids=["3-D", "1-D", "no-columns"])
def test_pack_bits_refuses_what_is_not_rows_of_codes(bits):
    # 3-D would pack along the middle axis, 1-D has no row axis, and 0-bit
    # rows break the row rule's K >= 1
    with pytest.raises(ShapeError, match="K >= 1"):
        pack_bits(bits)


def test_binary_code_refuses_an_empty_code():
    with pytest.raises(ShapeError, match="K >= 1"):
        BinaryCode(np.array([]))
