"""Pipeline: batched encoding, rerun stability and the stage cache."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from dkph import encoder, pipeline, serial, synth
from dkph.codes import pack_bits
from dkph.config import RunConfig
from dkph.encoder import EncoderConfig
from dkph.student import StudentParams
from test_student import oracle_student

TINY = dict(num_classes=4, videos_per_class=10, frames=4, feat_dim=6, model_dim=8,
            teacher_bits=8, code_bits=(8, 16), teacher_epochs=2, student_epochs=2,
            batch_size=8, num_anchors=4, anchor_neighbors=2)


def test_encode_split_equals_per_video_oracle(monkeypatch):
    monkeypatch.setattr(encoder, "BLOCK_VIDEOS", 3)
    cfg = EncoderConfig(frame_count=4, input_dim=6, model_dim=8, ffn_dim=12)
    params = StudentParams.init(cfg, np.random.default_rng(0), code_bits=8)
    feats = np.random.default_rng(1).normal(size=(7, 4, 6))
    want = pack_bits(np.stack([oracle_student(x, params)[2] for x in feats]).astype(np.int8))
    np.testing.assert_array_equal(pipeline.encode_split(feats, params), want)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    cfg = RunConfig(**TINY)
    work = tmp_path_factory.mktemp("work")
    first = pipeline.run_pipeline(cfg, work)
    return cfg, work, first


def _meta(run_dir):
    return {p.stem: json.loads(p.read_text()) for p in sorted((run_dir / "meta").glob("*.json"))}


def test_rerun_reproduces_report_and_executes_no_stage(tiny_run):
    cfg, work, first = tiny_run
    report = (first.run_dir / "report.txt").read_bytes()
    before = _meta(first.run_dir)
    assert set(before) == set(pipeline.stage_names(cfg))
    second = pipeline.run_pipeline(cfg, work)
    assert (second.run_dir / "report.txt").read_bytes() == report
    after = _meta(second.run_dir)
    assert {s: m["wall_time_s"] for s, m in after.items()} == \
        {s: m["wall_time_s"] for s, m in before.items()}
    assert after == before


def test_split_labels_number_ids_like_the_full_splits(tiny_run):
    _, _, first = tiny_run
    full = synth.load_dataset_splits(first.run_dir / "data")
    labels = synth.load_split_labels(first.run_dir / "data")
    assert list(labels) == list(full) == ["train", "query", "database"]
    for name, split in full.items():
        np.testing.assert_array_equal(labels[name].labels, split.labels)
        np.testing.assert_array_equal(labels[name].ids, split.ids)


def test_evaluate_codes_reads_no_features(tiny_run, monkeypatch):
    _, _, first = tiny_run
    def no_features(path):
        raise AssertionError(f"evaluate_codes loaded {path}")

    monkeypatch.setattr(serial, "load_features", no_features)
    metrics = pipeline.evaluate_codes(first.run_dir, 16)
    assert json.dumps(metrics, sort_keys=True) + "\n" == \
        (first.run_dir / "metrics_16.json").read_text()


def _copy_without(first, tmp_path, stage):
    """A copy of the tiny run in which ``stage`` has not completed."""
    run_dir = tmp_path / first.run_dir.name
    shutil.copytree(first.run_dir, run_dir)
    (run_dir / "meta" / f"{stage}.json").unlink()
    return run_dir


@pytest.mark.parametrize("stage, splits", [
    ("teacher", {"train"}),
    ("student_16", {"train"}),
    ("encode_16", {"query", "database"}),
])
def test_training_and_encoding_stages_read_only_their_splits(tiny_run, tmp_path, monkeypatch,
                                                             stage, splits):
    cfg, _, first = tiny_run
    run_dir = _copy_without(first, tmp_path, stage)
    load = serial.load_features
    read = []

    def only_own_splits(path):
        path = Path(path)
        if path.parent.name == "data":
            if path.stem not in splits:
                raise AssertionError(f"stage {stage} loaded {path}")
            read.append(path.stem)
        return load(path)

    monkeypatch.setattr(serial, "load_features", only_own_splits)
    name, _, bits = stage.partition("_")
    run = getattr(pipeline, f"stage_{name}")
    run(cfg, run_dir, *([int(bits)] if bits else []))
    assert sorted(read) == sorted(splits)
    assert pipeline.stage_completed(run_dir, stage, cfg)


def test_encode_stage_narrows_the_checkpoint_to_the_features_dtype(tiny_run, tmp_path,
                                                                   monkeypatch):
    cfg, _, first = tiny_run
    run_dir = _copy_without(first, tmp_path, "encode_16")
    encode = pipeline.encode_split
    dtypes = []

    def recorded(features, params):
        dtypes.append((features.dtype, {a.dtype for a in params.as_dict().values()}))
        return encode(features, params)

    monkeypatch.setattr(pipeline, "encode_split", recorded)
    pipeline.stage_encode(cfg, run_dir, 16)
    assert dtypes == [(np.float32, {np.dtype(np.float32)})] * 2


def test_meta_records_carry_the_code_version(tiny_run):
    _, _, first = tiny_run
    assert {m["code_version"] for m in _meta(first.run_dir).values()} == {pipeline.CODE_VERSION}


def test_stale_code_version_reruns_the_stage(tiny_run):
    cfg, work, first = tiny_run
    path = first.run_dir / "meta" / "eval_8.json"
    record = json.loads(path.read_text())
    record["code_version"] = pipeline.CODE_VERSION - 1
    record["wall_time_s"] = -1.0
    path.write_text(json.dumps(record))
    assert not pipeline.stage_completed(first.run_dir, "eval_8", cfg)

    pipeline.run_pipeline(cfg, work)
    rerun = json.loads(path.read_text())
    assert rerun["code_version"] == pipeline.CODE_VERSION
    assert rerun["wall_time_s"] >= 0.0
    assert pipeline.stage_completed(first.run_dir, "eval_8", cfg)


def test_meta_without_code_version_is_stale(tiny_run):
    cfg, _, first = tiny_run
    path = first.run_dir / "meta" / "data.json"
    record = json.loads(path.read_text())
    del record["code_version"]
    path.write_text(json.dumps(record))
    try:
        assert not pipeline.stage_completed(first.run_dir, "data", cfg)
    finally:
        record["code_version"] = pipeline.CODE_VERSION
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
