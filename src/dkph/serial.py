"""Versioned little-endian binary artifacts: one container of named arrays.

:func:`save_arrays` writes every binary artifact and :func:`load_arrays`
reads it back, each array in exactly its saved dtype (one of
:data:`DTYPES`) and shape, in memory of its own. Layout, little-endian:

    magic b"DKPA", version u32, count u32, then per array: name_len u32,
    dtype 2 ASCII bytes, ndim u8, name utf-8, shape u64 x ndim, C-order data

checkpoint  each model tensor under its checkpoint name
features    "features": (N, M, D) float32
codes       "packed": rows under ``codes.check_packed``'s row rule; "k": int64
graph       a SignedGraph's compressed rows as ``graph.SignedGraph`` holds them:
            "offsets" (2, N + 1) int64 and "indices" (E,) uint32
labels      "labels": (N,) int64, aligned with the split's feature rows
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .codes import check_packed
from .graph import SignedGraph
from .retrieval import integer_array

MAGIC = b"DKPA"
VERSION = 2
DTYPES = ("i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8", "f4", "f8")

_ENTRY = struct.Struct("<I2sB")  # name_len, dtype, ndim
_BY_CODE = {code.encode(): np.dtype("<" + code) for code in DTYPES}


def save_arrays(path, arrays: dict) -> None:
    """Write ``arrays`` (name -> array) as one container file."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(arrays))]
    for name, value in arrays.items():
        a = np.asarray(value)
        code = a.dtype.str[1:]
        if code not in DTYPES:
            raise ValueError(f"array {name!r}: dtype {a.dtype} is not one of {DTYPES}")
        a = a.astype("<" + code, order="C", copy=False)
        raw = name.encode("utf-8")
        chunks += [_ENTRY.pack(len(raw), code.encode(), a.ndim), raw,
                   struct.pack(f"<{a.ndim}Q", *a.shape), a.data]
    with open(path, "wb") as f:
        f.writelines(chunks)


def load_arrays(path) -> dict[str, np.ndarray]:
    """Every array of a container file, by name, in saved order.

    Raises EOFError on a file cut short, ValueError on anything else that
    :func:`save_arrays` does not write.
    """
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size

        def read(n: int) -> bytes:
            # checked before reading, so a damaged size field asks for nothing
            nonlocal left
            if n > left:
                raise EOFError(f"{path}: truncated file: wanted {n} bytes, {left} left")
            left -= n
            return f.read(n)

        magic = read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a dkph array file (magic {magic!r})")
        version, count = struct.unpack("<II", read(8))
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        for _ in range(count):
            name_len, code, ndim = _ENTRY.unpack(read(_ENTRY.size))
            dtype = _BY_CODE.get(code)
            if dtype is None:
                raise ValueError(f"{path}: dtype {code!r} is not one of {DTYPES}")
            try:
                name = read(name_len).decode("utf-8")
            except UnicodeDecodeError as err:
                raise ValueError(f"{path}: an array name is not UTF-8 ({err})") from None
            if name in out:
                raise ValueError(f"{path}: array name {name!r} appears twice")
            shape = struct.unpack(f"<{ndim}Q", read(8 * ndim))
            size = math.prod(shape)
            # one read and one copy per array, so that every loaded array owns
            # its memory: views into a shared buffer slowed perfbench's train run
            data = np.frombuffer(read(size * dtype.itemsize), dtype, size)
            out[name] = data.reshape(shape).copy()
        if f.read(1):
            raise ValueError(f"{path}: bytes after the last array")
    return out


def _load_kind(path, kind: str, layout: dict) -> dict[str, np.ndarray]:
    """The arrays of a ``kind`` file, which must be exactly those of
    ``layout`` (name -> (dtype, ndim)), as the kind's save writes them;
    ValueError naming ``path`` otherwise."""
    arrays = load_arrays(path)
    if sorted(arrays) != sorted(layout):
        raise ValueError(f"{path}: not a {kind} file (arrays {sorted(arrays)})")
    for name, (dtype, ndim) in layout.items():
        if arrays[name].dtype != dtype or arrays[name].ndim != ndim:
            raise ValueError(f"{path}: {kind} array {name!r} must be {ndim}-D {dtype}, "
                             f"got {arrays[name].dtype} of shape {arrays[name].shape}")
    return arrays


# -- checkpoints ---------------------------------------------------------

# Functions of their own, not aliases of the container: a wrapper put on every
# name bound to a checkpoint function must not also wrap every other kind.


def save_checkpoint(path, tensors: dict) -> None:
    """Model tensors by checkpoint name, any dtype and shape."""
    save_arrays(path, tensors)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    return load_arrays(path)


# -- frame features ------------------------------------------------------


def save_features(path, features: np.ndarray) -> None:
    """features: (N, M, D) array; stored as float32."""
    x = np.asarray(features)
    if x.ndim != 3:
        raise ValueError(f"features must be (N, M, D), got shape {x.shape}")
    save_arrays(path, {"features": x.astype(np.float32, copy=False)})


def load_features(path) -> np.ndarray:
    """Returns (N, M, D) float32, the stored precision; any other dtype or
    number of axes raises ValueError naming the file.

    Training and encoding compute in the features' dtype (see
    ``encoder``), so float32 features train and encode in float32; widening
    here would add no precision.
    """
    return _load_kind(path, "features", {"features": ("float32", 3)})["features"]


# -- packed codes --------------------------------------------------------


def _codes_k(path, packed: np.ndarray, k) -> int:
    """``codes.check_packed`` of a codes file's rows, its error naming ``path``."""
    try:
        return check_packed(packed, k)
    except ValueError as err:
        raise type(err)(f"{path}: {err}") from None


def save_codes(path, packed: np.ndarray, k: int) -> None:
    """packed: rows of K-bit codes under the row rule of ``codes``."""
    save_arrays(path, {"packed": packed, "k": np.int64(_codes_k(path, packed, k))})


def load_codes(path) -> tuple[np.ndarray, int]:
    """The packed rows and K of a :func:`save_codes` file, checked as on save."""
    arrays = _load_kind(path, "codes", {"packed": ("uint8", 2), "k": ("int64", 0)})
    return arrays["packed"], _codes_k(path, arrays["packed"], arrays["k"])


# -- labels --------------------------------------------------------------


def save_labels(path, labels) -> None:
    """labels: a 1-D array of integer dtype (``retrieval.integer_array``'s
    rule) whose values int64 holds, stored as int64; anything else raises
    ValueError naming ``path`` and writes no file."""
    try:
        labels = integer_array(labels, "labels")
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if labels.ndim != 1:
        raise ValueError(f"{path}: labels must be 1-D, got shape {labels.shape}")
    if labels.size and labels.max() > np.iinfo(np.int64).max:
        raise ValueError(f"{path}: label {labels.max()} does not fit in int64")
    save_arrays(path, {"labels": labels.astype(np.int64, copy=False)})


def load_labels(path) -> np.ndarray:
    """The (N,) int64 labels of a :func:`save_labels` file; any other dtype
    or number of axes raises ValueError naming the file."""
    return _load_kind(path, "labels", {"labels": ("int64", 1)})["labels"]


# -- signed graph --------------------------------------------------------


def save_graph(path, graph: SignedGraph) -> None:
    """The graph's offsets as they are, and its indices as uint32."""
    save_arrays(path, {"offsets": graph.offsets, "indices": graph.indices.astype(np.uint32)})


def load_graph(path) -> SignedGraph:
    """The graph of a :func:`save_graph` file, its indices as int64. Arrays
    not in the dtypes save writes, offsets that do not index the graph's two
    sides and an edge to a video outside the graph raise ValueError."""
    arrays = _load_kind(path, "graph", {"offsets": ("int64", 2), "indices": ("uint32", 1)})
    offsets, indices = arrays["offsets"], arrays["indices"].astype(np.int64)
    flat = offsets.reshape(-1)
    if (len(offsets) != 2 or flat[:1].tolist() != [0] or np.any(np.diff(flat) < 0)
            or flat[-1] != indices.size or offsets[1, 0] != offsets[0, -1]):
        raise ValueError(f"{path}: graph offsets do not index the graph's rows")
    n = offsets.shape[1] - 1
    if np.any(indices >= n):
        raise ValueError(f"{path}: an edge index is not one of the graph's {n} videos")
    return SignedGraph(offsets=offsets, indices=indices)
