"""Run configuration: range checks at construction."""

from pathlib import Path

import pytest

from dkph.config import RunConfig
from dkph.exceptions import ConfigError

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def rejects(key, **values):
    with pytest.raises(ConfigError, match=key):
        RunConfig(**values)


def test_num_anchors_at_most_the_training_videos():
    # 3 classes x round(0.5 x 10) = 15 training videos
    RunConfig(num_classes=3, videos_per_class=10, num_anchors=15, anchor_neighbors=2)
    rejects("num_anchors", num_classes=3, videos_per_class=10, num_anchors=16,
            anchor_neighbors=2)


def test_anchor_neighbors_between_one_and_num_anchors():
    RunConfig(num_anchors=5, anchor_neighbors=5)
    rejects("anchor_neighbors", num_anchors=5, anchor_neighbors=6)
    rejects("anchor_neighbors", anchor_neighbors=0)


def test_batch_size_positive():
    RunConfig(batch_size=1)
    rejects("batch_size", batch_size=0)


def test_epochs_non_negative():
    RunConfig(teacher_epochs=0, student_epochs=0)
    rejects("teacher_epochs", teacher_epochs=-1)
    rejects("student_epochs", student_epochs=-1)


def test_code_bits_nonempty_and_positive():
    RunConfig(code_bits=(8,))
    rejects("code_bits", code_bits=())
    rejects("code_bits", code_bits=(16, 0))


def test_mask_ratio_strictly_inside_unit_interval():
    RunConfig(mask_ratio=0.5)
    rejects("mask_ratio", mask_ratio=0.0)
    rejects("mask_ratio", mask_ratio=1.0)


def test_checked_when_loaded_from_text():
    with pytest.raises(ConfigError, match="batch_size"):
        RunConfig.from_text("batch_size = 0\n")


def test_default_and_benchmark_workload_configs_accepted(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    RunConfig()
    for name in ("train", "wide", "retrieval"):
        workloads.run_config(name, seed=1)
    workloads.run_config("train", seed=1, smoke=True)
