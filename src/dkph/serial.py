"""Versioned little-endian binary file formats.

All multi-byte integers are little-endian. Four artifact kinds:

checkpoint  magic b"DKPM": named float64 matrices
            (count, then per matrix: name_len u32, name utf-8, rows u32,
             cols u32, rows*cols float64)
features    magic b"DKPH": N u32, M u32, D u32, then N*M*D float32 row-major
codes       magic b"DKPC": n u32, K u32, then n packed rows of ceil(K/8) bytes
graph       magic b"DKPG": N u32, N_c u32, p u32, alpha f64, lambda1 f64,
            lambda2 f64, seed u64, then per video: index u32, pos_count u32,
            pos indices u32..., neg_count u32, neg indices u32...

Labels are a plain text sidecar: one integer per line, aligned with ids.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

VERSION = 1

_MAGIC_CKPT = b"DKPM"
_MAGIC_FEAT = b"DKPH"
_MAGIC_CODE = b"DKPC"
_MAGIC_GRAPH = b"DKPG"


def _read_exact(f, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise EOFError(f"truncated file: wanted {n} bytes, got {len(data)}")
    return data


def _check_header(f, magic: bytes, kind: str) -> None:
    got = _read_exact(f, 4)
    if got != magic:
        raise ValueError(f"not a {kind} file (magic {got!r})")
    (version,) = struct.unpack("<I", _read_exact(f, 4))
    if version != VERSION:
        raise ValueError(f"unsupported {kind} version {version}")


# -- checkpoints ---------------------------------------------------------


def save_checkpoint(path, matrices: dict[str, np.ndarray]) -> None:
    path = Path(path)
    with open(path, "wb") as f:
        f.write(_MAGIC_CKPT)
        f.write(struct.pack("<II", VERSION, len(matrices)))
        for name, mat in matrices.items():
            m = np.atleast_2d(np.asarray(mat, dtype=np.float64))
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<II", m.shape[0], m.shape[1]))
            f.write(m.astype("<f8").tobytes(order="C"))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        _check_header(f, _MAGIC_CKPT, "checkpoint")
        (count,) = struct.unpack("<I", _read_exact(f, 4))
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(f, 4))
            name = _read_exact(f, name_len).decode("utf-8")
            rows, cols = struct.unpack("<II", _read_exact(f, 8))
            data = np.frombuffer(_read_exact(f, rows * cols * 8), dtype="<f8")
            out[name] = data.reshape(rows, cols).astype(np.float64)
    return out


# -- frame features ------------------------------------------------------


def save_features(path, features: np.ndarray) -> None:
    """features: (N, M, D) array; stored as float32."""
    x = np.asarray(features)
    if x.ndim != 3:
        raise ValueError(f"features must be (N, M, D), got shape {x.shape}")
    n, m, d = x.shape
    with open(path, "wb") as f:
        f.write(_MAGIC_FEAT)
        f.write(struct.pack("<IIII", VERSION, n, m, d))
        f.write(x.astype("<f4").tobytes(order="C"))


def load_features(path) -> np.ndarray:
    """Returns (N, M, D) float32, the stored precision.

    Training and encoding compute in the features' dtype (see
    ``encoder``), so float32 features train and encode in float32; widening
    here would add no precision.
    """
    with open(path, "rb") as f:
        _check_header(f, _MAGIC_FEAT, "features")
        n, m, d = struct.unpack("<III", _read_exact(f, 12))
        data = np.frombuffer(_read_exact(f, n * m * d * 4), dtype="<f4")
    return data.reshape(n, m, d).astype(np.float32)


# -- packed codes --------------------------------------------------------


def save_codes(path, packed: np.ndarray, k: int) -> None:
    """packed: (n, ceil(K/8)) uint8 rows."""
    p = np.asarray(packed, dtype=np.uint8)
    if p.ndim != 2 or p.shape[1] != (k + 7) // 8:
        raise ValueError(f"packed shape {p.shape} inconsistent with K={k}")
    with open(path, "wb") as f:
        f.write(_MAGIC_CODE)
        f.write(struct.pack("<III", VERSION, p.shape[0], k))
        f.write(p.tobytes(order="C"))


def load_codes(path) -> tuple[np.ndarray, int]:
    with open(path, "rb") as f:
        _check_header(f, _MAGIC_CODE, "codes")
        n, k = struct.unpack("<II", _read_exact(f, 8))
        row_bytes = (k + 7) // 8
        data = np.frombuffer(_read_exact(f, n * row_bytes), dtype=np.uint8)
    return data.reshape(n, row_bytes).copy(), k


# -- labels --------------------------------------------------------------


def save_labels(path, labels) -> None:
    with open(path, "w") as f:
        for lab in np.asarray(labels).reshape(-1):
            f.write(f"{int(lab)}\n")


def load_labels(path) -> np.ndarray:
    with open(path) as f:
        return np.array([int(line) for line in f if line.strip()], dtype=np.int64)


# -- signed graph --------------------------------------------------------


def save_graph(path, positives, negatives, *, n_centers: int, p: int,
               alpha: float, lambda1: float, lambda2: float, seed: int) -> None:
    """positives/negatives: per-video index lists (len N each)."""
    if len(positives) != len(negatives):
        raise ValueError("positives/negatives length mismatch")
    n = len(positives)
    with open(path, "wb") as f:
        f.write(_MAGIC_GRAPH)
        f.write(struct.pack("<IIII", VERSION, n, n_centers, p))
        f.write(struct.pack("<dddQ", alpha, lambda1, lambda2, seed))
        for i in range(n):
            pos = np.asarray(positives[i], dtype="<u4")
            neg = np.asarray(negatives[i], dtype="<u4")
            f.write(struct.pack("<II", i, pos.size))
            f.write(pos.tobytes())
            f.write(struct.pack("<I", neg.size))
            f.write(neg.tobytes())


def load_graph(path):
    """Returns (positives, negatives, header dict)."""
    with open(path, "rb") as f:
        _check_header(f, _MAGIC_GRAPH, "graph")
        n, n_centers, p = struct.unpack("<III", _read_exact(f, 12))
        alpha, lambda1, lambda2, seed = struct.unpack("<dddQ", _read_exact(f, 32))
        positives, negatives = [], []
        for i in range(n):
            idx, npos = struct.unpack("<II", _read_exact(f, 8))
            if idx != i:
                raise ValueError(f"graph record out of order: expected {i}, got {idx}")
            positives.append(np.frombuffer(_read_exact(f, 4 * npos), dtype="<u4").astype(np.int64))
            (nneg,) = struct.unpack("<I", _read_exact(f, 4))
            negatives.append(np.frombuffer(_read_exact(f, 4 * nneg), dtype="<u4").astype(np.int64))
    header = dict(n=n, n_centers=n_centers, p=p, alpha=alpha,
                  lambda1=lambda1, lambda2=lambda2, seed=seed)
    return positives, negatives, header
