"""Synthetic video-feature corpus with known class structure.

Each class owns a prototype trajectory: a static base vector plus a smooth
low-frequency drift across frames (three Fourier modes), scaled by
``temporal_drift``. A video is its class prototype plus per-frame Gaussian
noise of scale ``intra_class_noise``. Frames within a video are therefore
strongly correlated (like real video) while classes stay separable.

:func:`generate_synthetic` reads the corpus keys of a :class:`RunConfig`
(``num_classes``, ``videos_per_class``, ``frames``, ``feat_dim``,
``intra_class_noise``, ``temporal_drift`` and ``data_seed``), which has
already range-checked them.

Videos are split per class into the :data:`SPLITS` partitions, train /
query / database (50/10/40, sized by ``RunConfig.split_sizes``). A split is
its features and class labels, in class order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import serial
from .config import RunConfig

# the corpus's splits, in generation order: every split list reads this
SPLITS = ("train", "query", "database")


@dataclass
class Split:
    """One partition of the corpus: its videos' features and class labels."""

    features: np.ndarray  # (n, M, D): float64 when generated, float32 when loaded
    labels: np.ndarray    # (n,) class ids


@dataclass
class SynthDataset:
    splits: dict[str, Split]      # by name, in SPLITS order
    prototype_accuracy: float     # nearest-prototype classification on all videos


def _smooth_drift(rng: np.random.Generator, frames: int, dim: int) -> np.ndarray:
    """Low-frequency unit-scale path over frames (three Fourier modes)."""
    t = (np.arange(frames) + 0.5) / frames
    path = np.zeros((frames, dim))
    for h in (1, 2, 3):
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        path += np.outer(np.sin(np.pi * h * t), a) + np.outer(np.cos(np.pi * h * t), b)
    return path / np.sqrt(6.0)


def generate_synthetic(cfg: RunConfig) -> SynthDataset:
    rng = np.random.default_rng(cfg.data_seed)
    c, v, m, d = cfg.num_classes, cfg.videos_per_class, cfg.frames, cfg.feat_dim

    prototypes = np.empty((c, m, d))
    for ci in range(c):
        base = rng.normal(size=d)
        prototypes[ci] = base + cfg.temporal_drift * _smooth_drift(rng, m, d)

    # one draw for every video's noise is the same stream as one draw per video
    features = rng.normal(size=(c, v, m, d))
    features *= cfg.intra_class_noise
    features += prototypes[:, None]
    labels = np.repeat(np.arange(c), v)

    # nearest-prototype separability diagnostic on flattened features, scored
    # as argmin |p|^2 - 2 x.p, which drops the per-video |x|^2 term
    proto_flat = prototypes.reshape(c, -1)
    score = features.reshape(c * v, -1) @ proto_flat.T
    score *= -2.0
    score += np.einsum("ij,ij->i", proto_flat, proto_flat)
    accuracy = float((score.argmin(axis=1) == labels).mean())

    # each split takes videos [lo, hi) of every class
    bounds = np.cumsum((0, *cfg.split_sizes())).tolist()
    splits = {name: Split(features=features[:, lo:hi].reshape(-1, m, d),
                          labels=np.repeat(np.arange(c), hi - lo))
              for name, lo, hi in zip(SPLITS, bounds, bounds[1:])}
    return SynthDataset(splits, prototype_accuracy=accuracy)


def load_dataset_splits(data_dir) -> dict[str, Split]:
    """Every split of :data:`SPLITS` in a data directory, with the features
    as stored (float32)."""
    data_dir = Path(data_dir)
    return {name: Split(serial.load_features(data_dir / f"{name}.features"),
                        serial.load_labels(data_dir / f"{name}.labels"))
            for name in SPLITS}
