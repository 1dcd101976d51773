"""Binary codes over {-1,+1} and their packed-bit storage form.

Packing layout: bit k lives in byte k // 8 at bit position k % 8
(little-endian within the byte); +1 maps to a set bit. Trailing pad bits of
the last byte are zero, so XOR-based Hamming distances ignore them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ShapeError


def sign_pm1(x: np.ndarray) -> np.ndarray:
    """Sign with the tie rule sign(0) = +1, so outputs are exactly {-1,+1}.

    The result has the dtype of a floating ``x`` (float64 otherwise), so a
    float32 forward stays float32.
    """
    x = np.asarray(x)
    one = np.ones((), dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    return np.where(x >= 0.0, one, -one)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack rows of {-1,+1} values into uint8 rows of ceil(K/8) bytes."""
    b = np.asarray(bits)
    squeeze = b.ndim == 1
    if squeeze:
        b = b.reshape(1, -1)
    if not np.all(np.abs(b) == 1):
        raise ValueError("pack_bits expects entries in {-1,+1}")
    packed = np.packbits((b > 0).astype(np.uint8), axis=1, bitorder="little")
    return packed[0] if squeeze else packed


def unpack_bits(packed: np.ndarray, k: int) -> np.ndarray:
    """Inverse of pack_bits; returns int8 rows of {-1,+1} of length k."""
    p = np.asarray(packed, dtype=np.uint8)
    squeeze = p.ndim == 1
    if squeeze:
        p = p.reshape(1, -1)
    raw = np.unpackbits(p, axis=1, count=k, bitorder="little")
    bits = np.where(raw > 0, 1, -1).astype(np.int8)
    return bits[0] if squeeze else bits


@dataclass
class BinaryCode:
    """A K-bit code; ``bits`` holds {-1,+1} as int8."""

    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.int8).reshape(-1)
        if not np.all(np.abs(self.bits) == 1):
            raise ValueError("BinaryCode entries must be -1 or +1")

    @property
    def k(self) -> int:
        return self.bits.size

    @property
    def packed(self) -> np.ndarray:
        return pack_bits(self.bits)

    @classmethod
    def from_packed(cls, packed: np.ndarray, k: int) -> "BinaryCode":
        return cls(unpack_bits(packed, k))

    def __eq__(self, other) -> bool:
        return isinstance(other, BinaryCode) and np.array_equal(self.bits, other.bits)


def require_same_length(a: BinaryCode, b: BinaryCode) -> int:
    if a.k != b.k:
        raise ShapeError(f"code lengths differ: {a.k} vs {b.k}")
    return a.k
