"""Run configuration: range checks at construction."""

from pathlib import Path

import pytest

from dkph.config import RunConfig
from dkph.exceptions import ConfigError
from dkph.retrieval import MAP_KS

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def rejects(key, **values):
    with pytest.raises(ConfigError, match=key):
        RunConfig(**values)


def test_num_anchors_at_most_the_training_videos():
    # 3 classes x round(0.5 x 10) = 15 training videos
    RunConfig(num_classes=3, videos_per_class=10, num_anchors=15, anchor_neighbors=2)
    rejects("num_anchors", num_classes=3, videos_per_class=10, num_anchors=16,
            anchor_neighbors=2)


def test_database_holds_at_least_the_smallest_map_cutoff():
    # 1 class: v - round(0.5 v) - round(0.1 v) database videos, 5 at v = 12
    # and 4 at v = 10, against min(MAP_KS) = 5
    assert min(MAP_KS) == 5
    small = dict(num_classes=1, num_anchors=5, anchor_neighbors=2)
    RunConfig(videos_per_class=12, **small)
    rejects("videos_per_class", videos_per_class=10, **small)


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


# Each rule: a value at its edge that is accepted, and one past it that is
# rejected naming the key. The other values keep every other rule satisfied.
RANGE_RULES = [
    ("num_classes", 1, 0),
    ("videos_per_class", 6, 5),  # round(0.1 x 5) = 0 query videos per class
    ("frames", 1, 0),
    ("feat_dim", 1, 0),
    ("model_dim", 1, 0),
    ("ffn_dim", 0, -1),
    ("teacher_bits", 1, 0),
    ("intra_class_noise", 0.0, -0.1),
    ("temporal_drift", 0.0, -0.1),
    ("learn_rate", 0.0, -1.0),
    ("bandwidth", 0.0, -0.5),
    ("gamma1", 0.0, -0.1),
    ("gamma2", 0.0, -0.1),
    ("eta", 0.0, -0.1),
    ("beta", 0.0, -0.1),
    ("code_bits", (16, 32), (16, 16)),
]


@pytest.mark.parametrize("key, edge, bad", RANGE_RULES, ids=[r[0] for r in RANGE_RULES])
def test_range_rule(key, edge, bad):
    small = dict(num_anchors=1, anchor_neighbors=1)
    RunConfig(**small, **{key: edge})
    with pytest.raises(ConfigError, match=f"^{key} = "):
        RunConfig(**small, **{key: bad})


def test_save_then_load_gives_an_equal_config_and_hash(tmp_path):
    cfg = RunConfig(learn_rate=1.0 / 3.0, intra_class_noise=0.1 + 0.2, bandwidth=1e-7,
                    code_bits=(8, 24, 40), num_classes=3, num_anchors=7, anchor_neighbors=4,
                    work_dir=str(tmp_path / "work"))
    path = tmp_path / "run.cfg"
    cfg.save(path)
    loaded = RunConfig.load(path)
    assert loaded == cfg
    assert loaded.config_hash() == cfg.config_hash()
    assert isinstance(loaded.code_bits, tuple) and isinstance(loaded.learn_rate, float)
