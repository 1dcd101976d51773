"""Run configuration: range checks at construction."""

import dataclasses
import math
import re
import sys
from pathlib import Path

import numpy as np
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


@pytest.mark.parametrize("key", ["data_seed", "train_seed"])
def test_seeds_non_negative(key):
    RunConfig(**{key: 0})
    rejects(key, **{key: -1})


def test_code_bits_nonempty_and_positive():
    RunConfig(code_bits=(8,))
    rejects("code_bits", code_bits=())
    rejects("code_bits", code_bits=(16, 0))


def test_mask_ratio_strictly_inside_unit_interval():
    RunConfig(mask_ratio=0.5)
    rejects("mask_ratio", mask_ratio=0.0)
    rejects("mask_ratio", mask_ratio=1.0)


def test_mask_ratio_leaves_a_frame_of_every_video_unmasked():
    # max(1, round(mask_ratio x frames)) frames are masked per video
    assert RunConfig(frames=4, mask_ratio=0.75).masked_frames() == 3
    assert RunConfig(frames=2, mask_ratio=0.1).masked_frames() == 1
    assert RunConfig().masked_frames() == 4  # round(0.15 x 25)
    rejects("mask_ratio", frames=4, mask_ratio=0.9)  # round(3.6) = 4
    rejects("mask_ratio", frames=1)  # one frame, always masked


def test_split_sizes_per_class_cover_every_video():
    assert RunConfig().split_sizes() == (20, 4, 16)
    assert RunConfig(videos_per_class=17).split_sizes() == (8, 2, 7)  # round(8.5) = 8


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
    ("frames", 2, 0),  # at 1 the teacher masks the only frame (mask_ratio rule)
    ("feat_dim", 1, 0),
    ("model_dim", 1, 0),
    ("ffn_dim", 0, -1),
    ("teacher_bits", 1, 0),
    ("intra_class_noise", 0.0, -0.1),
    ("temporal_drift", 0.0, -0.1),
    ("learn_rate", 0.0, -1.0),
    ("gamma1", 0.0, -0.1),
    ("gamma2", 0.0, -0.1),
    ("lambda1", 0.0, -0.1),
    ("lambda2", 1e-9, 0.0),  # at 0 no row has a negative band
    ("eta", 0.0, -0.1),
    ("beta", 0.0, -0.1),
    ("code_bits", (16, 32), (16, 16)),
    # every float key: the largest finite value is accepted, inf is not
    *[(key, sys.float_info.max, math.inf)
      for key in ("intra_class_noise", "temporal_drift", "learn_rate", "lambda1",
                  "lambda2", "gamma1", "gamma2", "eta", "beta")],
    ("mask_ratio", 0.5, math.inf),
]


@pytest.mark.parametrize("key, edge, bad", RANGE_RULES,
                         ids=[key if bad != math.inf else f"{key}-inf"
                              for key, _, bad in RANGE_RULES])
def test_range_rule(key, edge, bad):
    small = dict(num_anchors=1, anchor_neighbors=1)
    RunConfig(**small, **{key: edge})
    with pytest.raises(ConfigError, match=f"^{key} = "):
        RunConfig(**small, **{key: bad})


def test_save_then_load_gives_an_equal_config_and_hash(tmp_path):
    cfg = RunConfig(learn_rate=1.0 / 3.0, intra_class_noise=0.1 + 0.2, eta=1e-7,
                    code_bits=(8, 24, 40), num_classes=3, num_anchors=7, anchor_neighbors=4,
                    work_dir=str(tmp_path / "work"))
    path = tmp_path / "run.cfg"
    cfg.save(path)
    loaded = RunConfig.load(path)
    assert loaded == cfg
    assert loaded.config_hash() == cfg.config_hash()
    assert isinstance(loaded.code_bits, tuple) and isinstance(loaded.learn_rate, float)


def test_code_bits_of_any_sequence_is_a_tuple_of_ints(tmp_path):
    want = RunConfig(code_bits=(16, 32))
    for bits in ([16, 32], np.array([16, 32])):
        cfg = RunConfig(code_bits=bits)
        assert cfg == want and cfg.config_hash() == want.config_hash()
        assert all(type(b) is int for b in cfg.code_bits)
    # a list once saved a config.cfg that load refused ("[16")
    RunConfig(code_bits=[16, 32]).save(tmp_path / "run.cfg")
    assert RunConfig.load(tmp_path / "run.cfg") == want


@pytest.mark.parametrize("key, value", [
    ("num_classes", 2.5), ("frames", True), ("code_bits", (16.5,)), ("code_bits", (True,)),
], ids=["float", "bool", "float_width", "bool_width"])
def test_integer_keys_refuse_floats_and_bools(key, value):
    with pytest.raises(ConfigError, match=f"^{key} = .*must be integral"):
        RunConfig(**{key: value})


def test_a_float_key_given_an_int_equals_and_hashes_as_its_float():
    as_int, as_float = RunConfig(learn_rate=1, lambda1=3), RunConfig(learn_rate=1.0, lambda1=3.0)
    assert as_int == as_float
    assert as_int.config_hash() == as_float.config_hash()
    assert type(as_int.learn_rate) is float and type(as_int.lambda1) is float


def test_a_config_saved_from_int_float_keys_reloads_with_its_hash(tmp_path):
    # the int once saved as "1" and reloaded as 1.0, under another hash
    cfg = RunConfig(learn_rate=1, eta=0, work_dir=str(tmp_path / "work"))
    cfg.save(tmp_path / "run.cfg")
    loaded = RunConfig.load(tmp_path / "run.cfg")
    assert loaded == cfg
    assert loaded.config_hash() == cfg.config_hash()


@pytest.mark.parametrize("key, value", [("eta", True), ("learn_rate", False),
                                        ("gamma1", np.True_)],
                         ids=["eta", "learn_rate", "numpy-bool"])
def test_float_keys_refuse_bools(key, value):
    with pytest.raises(ConfigError, match=f"^{key} = .*must be a real number, not a bool"):
        RunConfig(**{key: value})


@pytest.mark.parametrize("value", [5, None, Path("work"), ""],
                         ids=["int", "none", "path", "empty"])
def test_work_dir_must_be_a_string(value):
    # None was once accepted and failed later, in run_layout, with a bare TypeError
    with pytest.raises(ConfigError, match="^work_dir = .*must be a string"):
        RunConfig(work_dir=value)


@pytest.mark.parametrize("key, value", [("learn_rate", True), ("code_bits", 16),
                                        ("work_dir", None), ("num_classes", 4)])
def test_a_built_config_refuses_assignment(key, value):
    # an assignment would skip every check, and config_hash would hash the value
    cfg = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, key, value)
    assert cfg == RunConfig()


@pytest.mark.parametrize("value", [16, np.int64(16), "16,32"], ids=["int", "numpy-int", "str"])
def test_code_bits_must_be_a_sequence_of_widths(value):
    with pytest.raises(ConfigError, match="^code_bits = .*must be a sequence of integer widths"):
        RunConfig(code_bits=value)


@pytest.mark.parametrize("text, line, error", [
    ("batch_size = 8\nbatch_size 8\n", 2, "expected 'key = value', got 'batch_size 8'"),
    ("# a key that was deleted\nbandwidth = 0\n", 2, "unknown key 'bandwidth'"),
    ("batch_size = 8\n\nbatch_size = 16\n", 3, "duplicate key 'batch_size'"),
    ("batch_size = eight\n", 1, "bad value for 'batch_size'"),
], ids=["no-equals", "unknown-key", "duplicate-key", "bad-int"])
def test_a_malformed_line_raises_naming_its_source_and_line(text, line, error):
    with pytest.raises(ConfigError, match=f"^{re.escape(f'run.cfg:{line}: {error}')}"):
        RunConfig.from_text(text, source="run.cfg")


def test_only_a_line_that_starts_with_hash_is_a_comment():
    cfg = RunConfig.from_text("  # a comment\nbatch_size = 8\nwork_dir = runs/#1 # a\n")
    assert (cfg.batch_size, cfg.work_dir) == (8, "runs/#1 # a")
    with pytest.raises(ConfigError, match="^<string>:1: bad value for 'batch_size'"):
        RunConfig.from_text("batch_size = 8  # a trailing comment is part of the value\n")


@pytest.mark.parametrize("work_dir", ["/tmp/a#b", "a # b", "with space/x"])
def test_a_work_dir_saves_and_loads_unchanged(tmp_path, work_dir):
    cfg = RunConfig(work_dir=work_dir)
    cfg.save(tmp_path / "run.cfg")
    assert RunConfig.load(tmp_path / "run.cfg") == cfg


@pytest.mark.parametrize("work_dir", [" /tmp/x ", "/tmp/x\t", "a\nb", "a\rb", "a\u2028b"],
                         ids=["spaces", "tab", "newline", "return", "line-separator"])
def test_a_work_dir_a_saved_config_cannot_give_back_is_refused(work_dir):
    # a loaded value is stripped, and a line break ends its line
    with pytest.raises(ConfigError, match="^work_dir = .*no line break"):
        RunConfig(work_dir=work_dir)
