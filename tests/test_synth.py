"""Synthetic corpus: determinism, split layout, reload."""

import numpy as np
import pytest

from dkph import serial
from dkph.config import RunConfig
from dkph.synth import SPLITS, _smooth_drift, generate_synthetic, load_dataset_splits

SMALL = dict(num_classes=3, videos_per_class=10, frames=4, feat_dim=5, num_anchors=1,
             anchor_neighbors=1)


def oracle_corpus(cfg):
    """(features in generation order, prototype accuracy) by one noise draw
    per video and the (N, C, M*D) broadcast of differences (oracle)."""
    rng = np.random.default_rng(cfg.data_seed)
    c, v, m, d = cfg.num_classes, cfg.videos_per_class, cfg.frames, cfg.feat_dim
    prototypes = np.empty((c, m, d))
    for ci in range(c):
        base = rng.normal(size=d)
        prototypes[ci] = base + cfg.temporal_drift * _smooth_drift(rng, m, d)
    features = np.empty((c * v, m, d))
    labels = np.repeat(np.arange(c), v)
    for vi in range(c * v):
        features[vi] = prototypes[labels[vi]] + cfg.intra_class_noise * rng.normal(size=(m, d))
    flat, proto_flat = features.reshape(c * v, -1), prototypes.reshape(c, -1)
    d2 = ((flat[:, None, :] - proto_flat[None, :, :]) ** 2).sum(axis=2)
    return features, float((d2.argmin(axis=1) == labels).mean())


@pytest.mark.parametrize("noise", [0.3, 5.0])  # at 5.0 the classes overlap
def test_corpus_equals_the_per_video_oracle(noise):
    cfg = RunConfig(**SMALL, intra_class_noise=noise, data_seed=3)
    data = generate_synthetic(cfg)
    features, accuracy = oracle_corpus(cfg)
    per_class = features.reshape(3, 10, 4, 5)
    # each split takes the same rows of every class: [0, 5), [5, 6), [6, 10)
    for split, (lo, hi) in zip(data.splits.values(), [(0, 5), (5, 6), (6, 10)]):
        assert split.features.tobytes() == per_class[:, lo:hi].reshape(-1, 4, 5).tobytes()
    assert data.prototype_accuracy == accuracy
    assert (accuracy == 1.0) == (noise == 0.3)


def test_same_seed_gives_the_same_corpus():
    a = generate_synthetic(RunConfig(**SMALL, data_seed=4))
    b = generate_synthetic(RunConfig(**SMALL, data_seed=4))
    for name, split in a.splits.items():
        other = b.splits[name]
        np.testing.assert_array_equal(split.features, other.features)
        np.testing.assert_array_equal(split.labels, other.labels)
    assert a.prototype_accuracy == b.prototype_accuracy
    c = generate_synthetic(RunConfig(**SMALL, data_seed=5))
    assert not np.array_equal(a.splits["train"].features, c.splits["train"].features)


def test_split_sizes_and_ids_numbered_train_query_database():
    # per class: round(0.5 x 10) = 5 train, round(0.1 x 10) = 1 query, 4 database
    data = generate_synthetic(RunConfig(**SMALL))
    assert tuple(data.splits) == SPLITS == ("train", "query", "database")
    sizes = {"train": 5, "query": 1, "database": 4}
    start = 0
    for name, split in data.splits.items():
        n = 3 * sizes[name]
        assert split.features.shape == (n, 4, 5)
        np.testing.assert_array_equal(np.bincount(split.labels, minlength=3), [sizes[name]] * 3)
        start += n
    assert start == 30


def test_prototype_accuracy_is_a_fraction():
    for noise in (0.0, 0.3, 5.0):
        acc = generate_synthetic(RunConfig(**SMALL, intra_class_noise=noise)).prototype_accuracy
        assert 0.0 <= acc <= 1.0
        if noise == 0.0:  # every video is its class prototype
            assert acc == 1.0


def test_reloaded_splits_are_the_generated_ones_at_float32(tmp_path):
    data = generate_synthetic(RunConfig(**SMALL, data_seed=2))
    for name, split in data.splits.items():
        serial.save_features(tmp_path / f"{name}.features", split.features)
        serial.save_labels(tmp_path / f"{name}.labels", split.labels)
    loaded = load_dataset_splits(tmp_path)
    assert tuple(loaded) == SPLITS
    for name, split in data.splits.items():
        got = loaded[name]
        assert got.features.dtype == np.float32
        np.testing.assert_array_equal(got.features, split.features.astype(np.float32))
        np.testing.assert_array_equal(got.labels, split.labels)
