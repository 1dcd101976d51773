"""Synthetic video-feature corpus with known class structure.

Each class owns a prototype trajectory: a static base vector plus a smooth
low-frequency drift across frames (three Fourier modes), scaled by
``temporal_drift``. A video is its class prototype plus per-frame Gaussian
noise of scale ``intra_class_noise``. Frames within a video are therefore
strongly correlated (like real video) while classes stay separable.

Videos are split per class into train / query / database partitions
(50/10/40 by default) and carry globally unique ids in concatenation order
[train; query; database], so indices stay stable on disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import serial

SPLIT_FRACTIONS = (0.5, 0.1)  # train, query; the rest is the database


@dataclass
class SynthConfig:
    num_classes: int = 10
    videos_per_class: int = 40
    frames: int = 25
    feat_dim: int = 64
    intra_class_noise: float = 0.3
    temporal_drift: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("num_classes", "videos_per_class", "frames", "feat_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.intra_class_noise < 0 or self.temporal_drift < 0:
            raise ValueError("noise parameters must be non-negative")


@dataclass
class Split:
    features: np.ndarray  # (n, M, D): float64 when generated, float32 when loaded
    labels: np.ndarray    # (n,) class ids
    ids: np.ndarray       # (n,) global video ids


@dataclass
class SynthDataset:
    train: Split
    query: Split
    database: Split
    prototypes: np.ndarray        # (C, M, D)
    prototype_accuracy: float     # nearest-prototype classification on all videos

    @property
    def splits(self) -> dict[str, Split]:
        return {"train": self.train, "query": self.query, "database": self.database}


def _smooth_drift(rng: np.random.Generator, frames: int, dim: int) -> np.ndarray:
    """Low-frequency unit-scale path over frames (three Fourier modes)."""
    t = (np.arange(frames) + 0.5) / frames
    path = np.zeros((frames, dim))
    for h in (1, 2, 3):
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        path += np.outer(np.sin(np.pi * h * t), a) + np.outer(np.cos(np.pi * h * t), b)
    return path / np.sqrt(6.0)


def generate_synthetic(cfg: SynthConfig) -> SynthDataset:
    rng = np.random.default_rng(cfg.seed)
    c, v, m, d = cfg.num_classes, cfg.videos_per_class, cfg.frames, cfg.feat_dim

    prototypes = np.empty((c, m, d))
    for ci in range(c):
        base = rng.normal(size=d)
        prototypes[ci] = base + cfg.temporal_drift * _smooth_drift(rng, m, d)

    features = np.empty((c * v, m, d))
    labels = np.repeat(np.arange(c), v)
    for vi in range(c * v):
        noise = rng.normal(size=(m, d))
        features[vi] = prototypes[labels[vi]] + cfg.intra_class_noise * noise

    # nearest-prototype separability diagnostic on flattened features
    flat = features.reshape(c * v, -1)
    proto_flat = prototypes.reshape(c, -1)
    d2 = ((flat[:, None, :] - proto_flat[None, :, :]) ** 2).sum(axis=2)
    accuracy = float((d2.argmin(axis=1) == labels).mean())

    n_train = int(round(SPLIT_FRACTIONS[0] * v))
    n_query = int(round(SPLIT_FRACTIONS[1] * v))
    train_rows, query_rows, db_rows = [], [], []
    for ci in range(c):
        block = np.arange(ci * v, (ci + 1) * v)
        train_rows.extend(block[:n_train])
        query_rows.extend(block[n_train:n_train + n_query])
        db_rows.extend(block[n_train + n_query:])

    counts = (len(train_rows), len(query_rows), len(db_rows))
    bounds = np.cumsum((0,) + counts)
    splits = []
    for si, rows in enumerate((train_rows, query_rows, db_rows)):
        rows = np.array(rows, dtype=np.int64)  # an empty split still indexes
        splits.append(Split(features=features[rows], labels=labels[rows],
                            ids=np.arange(bounds[si], bounds[si + 1])))
    return SynthDataset(train=splits[0], query=splits[1], database=splits[2],
                        prototypes=prototypes, prototype_accuracy=accuracy)


def load_split(data_dir, name: str) -> Split:
    """One split on its own, its ids numbered from 0."""
    data_dir = Path(data_dir)
    features = serial.load_features(data_dir / f"{name}.features")
    labels = serial.load_labels(data_dir / f"{name}.labels")
    return Split(features=features, labels=labels, ids=np.arange(features.shape[0]))


def load_dataset_splits(data_dir) -> dict[str, Split]:
    """Load all three splits with the canonical global id numbering."""
    out: dict[str, Split] = {}
    offset = 0
    for name in ("train", "query", "database"):
        split = load_split(data_dir, name)
        split.ids += offset
        offset += split.ids.size
        out[name] = split
    return out


class SplitLabels(NamedTuple):
    labels: np.ndarray    # (n,) class ids
    ids: np.ndarray       # (n,) global video ids


def load_split_labels(data_dir) -> dict[str, SplitLabels]:
    """Labels and global ids of all three splits from the label files alone
    (no features), numbered as load_dataset_splits numbers them."""
    out: dict[str, SplitLabels] = {}
    offset = 0
    for name in ("train", "query", "database"):
        labels = serial.load_labels(Path(data_dir) / f"{name}.labels")
        out[name] = SplitLabels(labels, np.arange(offset, offset + labels.size))
        offset += labels.size
    return out
