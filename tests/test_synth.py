"""Synthetic corpus: determinism, split layout, range checks, reload."""

import numpy as np
import pytest

from dkph import serial
from dkph.synth import SynthConfig, generate_synthetic, load_dataset_splits

SMALL = dict(num_classes=3, videos_per_class=10, frames=4, feat_dim=5)


def test_same_seed_gives_the_same_corpus():
    a = generate_synthetic(SynthConfig(**SMALL, seed=4))
    b = generate_synthetic(SynthConfig(**SMALL, seed=4))
    np.testing.assert_array_equal(a.prototypes, b.prototypes)
    for name, split in a.splits.items():
        other = b.splits[name]
        np.testing.assert_array_equal(split.features, other.features)
        np.testing.assert_array_equal(split.labels, other.labels)
        np.testing.assert_array_equal(split.ids, other.ids)
    assert a.prototype_accuracy == b.prototype_accuracy
    c = generate_synthetic(SynthConfig(**SMALL, seed=5))
    assert not np.array_equal(a.train.features, c.train.features)


def test_split_sizes_and_ids_numbered_train_query_database():
    # per class: round(0.5 x 10) = 5 train, round(0.1 x 10) = 1 query, 4 database
    data = generate_synthetic(SynthConfig(**SMALL))
    sizes = {"train": 5, "query": 1, "database": 4}
    start = 0
    for name, split in data.splits.items():
        n = 3 * sizes[name]
        assert split.features.shape == (n, 4, 5)
        np.testing.assert_array_equal(split.ids, np.arange(start, start + n))
        np.testing.assert_array_equal(np.bincount(split.labels, minlength=3), [sizes[name]] * 3)
        start += n
    assert start == 30


def test_classes_too_small_for_a_query_video_leave_the_query_split_empty():
    # per class: round(0.5 x 2) = 1 train, round(0.1 x 2) = 0 query, 1 database
    data = generate_synthetic(SynthConfig(**{**SMALL, "videos_per_class": 2}))
    assert data.query.features.shape == (0, 4, 5) and data.query.ids.size == 0
    np.testing.assert_array_equal(data.train.ids, [0, 1, 2])
    np.testing.assert_array_equal(data.database.ids, [3, 4, 5])
    np.testing.assert_array_equal(data.database.labels, [0, 1, 2])


@pytest.mark.parametrize("key, bad", [
    ("num_classes", 0), ("videos_per_class", 0), ("frames", 0), ("feat_dim", 0),
    ("intra_class_noise", -0.1), ("temporal_drift", -0.1),
])
def test_range_errors(key, bad):
    with pytest.raises(ValueError):
        SynthConfig(**{**SMALL, key: bad})


def test_prototype_accuracy_is_a_fraction():
    for noise in (0.0, 0.3, 5.0):
        acc = generate_synthetic(SynthConfig(**SMALL, intra_class_noise=noise)).prototype_accuracy
        assert 0.0 <= acc <= 1.0
        if noise == 0.0:  # every video is its class prototype
            assert acc == 1.0


def test_reloaded_splits_are_the_generated_ones_at_float32(tmp_path):
    data = generate_synthetic(SynthConfig(**SMALL, seed=2))
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
