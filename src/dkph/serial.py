"""Versioned little-endian binary artifacts: one container of named arrays.

:func:`save_arrays` writes every binary artifact and :func:`load_arrays`
reads it back, each array in exactly its saved dtype (one of
:data:`DTYPES`) and shape, in memory of its own. Layout, little-endian:

    magic b"DKPA", version u32, count u32, then per array: name_len u32,
    dtype 2 ASCII bytes, ndim u8, name utf-8, shape u64 x ndim, C-order data

checkpoint  each model tensor under its checkpoint name
features    "features": (N, M, D) float32
codes       "packed": (n, ceil(K/8)) uint8 rows; "k": int64
graph       for s in pos, neg: "s_offsets" (N + 1,) int64 and "s_indices"
            uint32, video i's row being s_indices[s_offsets[i]:s_offsets[i+1]];
            "n_centers", "p", "seed": int64; "alpha", "lambda1", "lambda2":
            float64

Labels are a plain text sidecar: one integer per line, aligned with ids.
"""

from __future__ import annotations

import math
import struct

import numpy as np

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
        def read(n: int) -> bytes:
            data = f.read(n)
            if len(data) != n:
                raise EOFError(f"{path}: truncated file: wanted {n} bytes, got {len(data)}")
            return data

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
            name = read(name_len).decode("utf-8")
            shape = struct.unpack(f"<{ndim}Q", read(8 * ndim))
            size = math.prod(shape)
            # one read and one copy per array, so that every loaded array owns
            # its memory: views into a shared buffer slowed perfbench's train run
            data = np.frombuffer(read(size * dtype.itemsize), dtype, size)
            out[name] = data.reshape(shape).copy()
        if f.read(1):
            raise ValueError(f"{path}: bytes after the last array")
    return out


def _load_kind(path, kind: str, names: tuple) -> dict[str, np.ndarray]:
    arrays = load_arrays(path)
    if sorted(arrays) != sorted(names):
        raise ValueError(f"{path}: not a {kind} file (arrays {sorted(arrays)})")
    return arrays


# -- checkpoints ---------------------------------------------------------


save_checkpoint = save_arrays  # tensors by checkpoint name, any dtype and shape
load_checkpoint = load_arrays


# -- frame features ------------------------------------------------------


def save_features(path, features: np.ndarray) -> None:
    """features: (N, M, D) array; stored as float32."""
    x = np.asarray(features)
    if x.ndim != 3:
        raise ValueError(f"features must be (N, M, D), got shape {x.shape}")
    save_arrays(path, {"features": x.astype(np.float32, copy=False)})


def load_features(path) -> np.ndarray:
    """Returns (N, M, D) float32, the stored precision.

    Training and encoding compute in the features' dtype (see
    ``encoder``), so float32 features train and encode in float32; widening
    here would add no precision.
    """
    return _load_kind(path, "features", ("features",))["features"]


# -- packed codes --------------------------------------------------------


def save_codes(path, packed: np.ndarray, k: int) -> None:
    """packed: (n, ceil(K/8)) uint8 rows."""
    p = np.asarray(packed, dtype=np.uint8)
    if p.ndim != 2 or p.shape[1] != (k + 7) // 8:
        raise ValueError(f"packed shape {p.shape} inconsistent with K={k}")
    save_arrays(path, {"packed": p, "k": np.int64(k)})


def load_codes(path) -> tuple[np.ndarray, int]:
    arrays = _load_kind(path, "codes", ("packed", "k"))
    return arrays["packed"], int(arrays["k"])


# -- labels --------------------------------------------------------------


def save_labels(path, labels) -> None:
    with open(path, "w") as f:
        for lab in np.asarray(labels).reshape(-1):
            f.write(f"{int(lab)}\n")


def load_labels(path) -> np.ndarray:
    with open(path) as f:
        return np.array([int(line) for line in f if line.strip()], dtype=np.int64)


# -- signed graph --------------------------------------------------------

_GRAPH_HEADER = ("n_centers", "p", "seed", "alpha", "lambda1", "lambda2")


def _pack_rows(side: str, rows) -> dict[str, np.ndarray]:
    """Offsets and concatenated uint32 indices of per-video index lists."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    indices = np.concatenate([np.zeros(0, np.uint32), *rows]).astype(np.uint32)
    return {f"{side}_offsets": offsets, f"{side}_indices": indices}


def _unpack_rows(path, arrays: dict, side: str) -> list[np.ndarray]:
    offsets, indices = arrays[f"{side}_offsets"], arrays[f"{side}_indices"]
    bounds = offsets.tolist()
    if bounds[:1] != [0] or bounds[-1] != indices.size or np.any(np.diff(offsets) < 0):
        raise ValueError(f"{path}: graph offsets do not index the graph's rows")
    # a row per video that owns its memory, as every loaded array does
    return [indices[lo:hi].astype(np.int64) for lo, hi in zip(bounds[:-1], bounds[1:])]


def save_graph(path, positives, negatives, *, n_centers: int, p: int,
               alpha: float, lambda1: float, lambda2: float, seed: int) -> None:
    """positives/negatives: per-video index lists (len N each)."""
    if len(positives) != len(negatives):
        raise ValueError("positives/negatives length mismatch")
    save_arrays(path, {**_pack_rows("pos", positives), **_pack_rows("neg", negatives),
                       "n_centers": np.int64(n_centers), "p": np.int64(p),
                       "seed": np.int64(seed), "alpha": np.float64(alpha),
                       "lambda1": np.float64(lambda1), "lambda2": np.float64(lambda2)})


def load_graph(path):
    """Returns (positives, negatives, header dict)."""
    arrays = _load_kind(path, "graph", ("pos_offsets", "pos_indices", "neg_offsets",
                                        "neg_indices", *_GRAPH_HEADER))
    positives = _unpack_rows(path, arrays, "pos")
    negatives = _unpack_rows(path, arrays, "neg")
    if len(positives) != len(negatives):
        raise ValueError(f"{path}: positives/negatives length mismatch")
    # item() gives the int64 fields as Python ints and the float64 ones as floats
    return positives, negatives, dict(n=len(positives), **{
        name: arrays[name].item() for name in _GRAPH_HEADER})
