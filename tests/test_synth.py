"""Synthetic corpus: determinism, split layout, reload."""

import numpy as np

from dkph import serial
from dkph.config import RunConfig
from dkph.synth import generate_synthetic, load_dataset_splits

SMALL = dict(num_classes=3, videos_per_class=10, frames=4, feat_dim=5, num_anchors=1,
             anchor_neighbors=1)


def test_same_seed_gives_the_same_corpus():
    a = generate_synthetic(RunConfig(**SMALL, data_seed=4))
    b = generate_synthetic(RunConfig(**SMALL, data_seed=4))
    for name, split in a.splits.items():
        other = b.splits[name]
        np.testing.assert_array_equal(split.features, other.features)
        np.testing.assert_array_equal(split.labels, other.labels)
        np.testing.assert_array_equal(split.ids, other.ids)
    assert a.prototype_accuracy == b.prototype_accuracy
    c = generate_synthetic(RunConfig(**SMALL, data_seed=5))
    assert not np.array_equal(a.train.features, c.train.features)


def test_split_sizes_and_ids_numbered_train_query_database():
    # per class: round(0.5 x 10) = 5 train, round(0.1 x 10) = 1 query, 4 database
    data = generate_synthetic(RunConfig(**SMALL))
    sizes = {"train": 5, "query": 1, "database": 4}
    start = 0
    for name, split in data.splits.items():
        n = 3 * sizes[name]
        assert split.features.shape == (n, 4, 5)
        np.testing.assert_array_equal(split.ids, np.arange(start, start + n))
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
    assert list(loaded) == ["train", "query", "database"]
    for name, split in data.splits.items():
        got = loaded[name]
        assert got.features.dtype == np.float32
        np.testing.assert_array_equal(got.features, split.features.astype(np.float32))
        np.testing.assert_array_equal(got.labels, split.labels)
        np.testing.assert_array_equal(got.ids, split.ids)
