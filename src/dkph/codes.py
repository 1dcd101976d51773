"""Binary codes over {-1,+1} and their packed-bit storage form.

Packing layout: bit k lives in byte k // 8 at bit position k % 8
(little-endian within the byte); +1 maps to a set bit. Trailing pad bits of
the last byte are zero, so XOR-based Hamming distances ignore them.

The row rule: the packed rows of K-bit codes are a 2-D (n, ceil(K/8)) uint8
array, K an integer >= 1, with every pad bit past bit K zero.
:func:`check_packed` is its one check; ``unpack_bits``, the codes files
(``serial``), ``retrieval.CodeIndex`` and the packed query sweep all call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def binarize_tanh(act: np.ndarray, mode: str) -> np.ndarray:
    """The codes of ``act = tanh(z)``: its sign under ``mode="hard"``, ``act``
    itself under ``"relaxed"``, the smooth pass the gradient checker uses."""
    if mode == "hard":
        return sign_pm1(act)
    if mode == "relaxed":
        return act
    raise ValueError(f"unknown binarize mode {mode!r}")


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack (N, K) rows of {-1,+1} values into (N, ceil(K/8)) uint8 rows.

    Raises ShapeError unless ``bits`` is 2-D with K >= 1 (the row rule,
    module docstring), and ValueError for an entry outside {-1,+1}.
    """
    b = np.asarray(bits)
    if b.ndim != 2 or b.shape[1] == 0:
        raise ShapeError(f"pack_bits expects (n, K) rows with K >= 1, got shape {b.shape}")
    if not np.all(np.abs(b) == 1):
        raise ValueError("pack_bits expects entries in {-1,+1}")
    return np.packbits((b > 0).astype(np.uint8), axis=1, bitorder="little")


def check_packed(packed, k) -> int:
    """K as an int when ``packed`` holds rows of K-bit codes as
    :func:`pack_bits` writes them (the row rule, module docstring).

    Raises ValueError for a K that is not a scalar integer >= 1 or for a set
    pad bit, and ShapeError for rows of another dtype or shape, so that no
    bit is invented, dropped or counted in a distance.
    """
    width = np.asarray(k)
    if width.ndim != 0 or width.dtype.kind not in "iu" or width < 1:
        raise ValueError(f"a code width K must be an integer >= 1, got {k!r}")
    k = int(width)
    packed = np.asarray(packed)
    if packed.dtype != np.uint8 or packed.ndim != 2 or packed.shape[1] != (k + 7) // 8:
        raise ShapeError(f"{k}-bit codes pack into (n, {(k + 7) // 8}) uint8 rows, "
                         f"got {packed.dtype} rows of shape {packed.shape}")
    if k % 8 and np.any(packed[:, -1] >> (k % 8)):
        raise ValueError(f"{k}-bit codes set pad bits past bit {k}")
    return k


def unpack_bits(packed: np.ndarray, k: int) -> np.ndarray:
    """Inverse of pack_bits for k-bit codes; returns (N, k) int8 rows of {-1,+1}.
    ``packed`` must follow the row rule (:func:`check_packed`)."""
    k = check_packed(packed, k)
    raw = np.unpackbits(packed, axis=1, count=k, bitorder="little")
    return np.where(raw > 0, 1, -1).astype(np.int8)


@dataclass
class BinaryCode:
    """A K-bit code; ``bits`` holds {-1,+1} as int8, ``packed`` its
    pack_bits row, computed once at construction."""

    bits: np.ndarray
    packed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # pack_bits checks the values before the int8 cast could wrap them
        bits = np.asarray(self.bits).reshape(-1)
        self.packed = pack_bits(bits[None])[0]
        self.bits = bits.astype(np.int8, copy=False)

    @property
    def k(self) -> int:
        return self.bits.size

    def __eq__(self, other) -> bool:
        return isinstance(other, BinaryCode) and np.array_equal(self.bits, other.bits)
