"""Pipeline: batched encoding, rerun stability, the stage cache and the ablation."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from dkph import encoder, pipeline, serial, synth
from dkph.codes import pack_bits
from dkph.config import RunConfig
from dkph.encoder import EncoderConfig
from dkph.exceptions import PipelineError
from dkph.student import init_student
from dkph.teacher import init_teacher
from test_encoder import assert_rel_close, oracle_forward
from test_student import oracle_student

TINY = dict(num_classes=4, videos_per_class=10, frames=4, feat_dim=6, model_dim=8,
            teacher_bits=8, code_bits=(8, 16), teacher_epochs=2, student_epochs=2,
            batch_size=8, num_anchors=4, anchor_neighbors=2)


def test_encode_split_equals_per_video_oracle(monkeypatch):
    monkeypatch.setattr(encoder, "BLOCK_VIDEOS", 3)
    cfg = EncoderConfig(frame_count=4, input_dim=6, model_dim=8, ffn_dim=12)
    params = init_student(cfg, np.random.default_rng(0), code_bits=8)
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


def test_a_stage_that_fails_while_rerunning_leaves_no_record(tiny_run, tmp_path, monkeypatch):
    cfg, _, first = tiny_run
    run_dir = tmp_path / first.run_dir.name
    shutil.copytree(first.run_dir, run_dir)
    (run_dir / "data" / "query.labels").unlink()

    def disk_full(path, labels):
        Path(path).write_bytes(b"")  # every output exists, one of them cut short
        raise OSError("no space left on device")

    monkeypatch.setattr(serial, "save_labels", disk_full)
    with pytest.raises(PipelineError, match="no space left on device"):
        pipeline.stage_data(cfg, run_dir)
    assert not (run_dir / "meta" / "data.json").exists()
    assert not pipeline.stage_completed(run_dir, "data", cfg)


def test_variant_encode_before_its_student_fails_naming_it(tiny_run):
    cfg, _, first = tiny_run
    with pytest.raises(PipelineError, match="prerequisite stage 'student_no_bsim_16'"):
        pipeline.stage_encode(cfg, first.run_dir, 16, "no_bsim")
    assert not (first.run_dir / "query_no_bsim_16.codes").exists()


def test_encode_stage_narrows_the_checkpoint_to_the_features_dtype(tiny_run, tmp_path,
                                                                   monkeypatch):
    cfg, _, first = tiny_run
    run_dir = _copy_without(first, tmp_path, "encode_16")
    encode = pipeline.encode_split
    dtypes = []

    def recorded(features, params):
        dtypes.append((features.dtype, {a.dtype for a in params.values()}))
        return encode(features, params)

    monkeypatch.setattr(pipeline, "encode_split", recorded)
    pipeline.stage_encode(cfg, run_dir, 16)
    assert dtypes == [(np.float32, {np.dtype(np.float32)})] * 2


def test_teacher_embeddings_are_frame_means_of_the_teacher_encoder(tiny_run):
    # the stage computes in float32; the oracle in float64 from the same values
    _, _, first = tiny_run
    params = encoder.cast_params(serial.load_checkpoint(first.run_dir / "teacher.ckpt"),
                                 np.float64)
    train = synth.load_split(first.run_dir / "data", "train").features.astype(np.float64)
    want = np.stack([oracle_forward(x, params).mean(axis=0) for x in train])
    got = serial.load_features(first.run_dir / "embeddings.features")
    assert got.shape == (len(train), 1, want.shape[1])
    assert_rel_close(got[:, 0, :], want, tol=2**10 * np.finfo(np.float32).eps)


def test_graph_artifacts_give_the_graph_and_each_video_anchor_centre(tiny_run):
    _, _, first = tiny_run
    graph, anchor_of = pipeline.load_graph_artifacts(first.run_dir)
    positives, negatives, _ = serial.load_graph(first.run_dir / "graph.bin")
    blob = serial.load_checkpoint(first.run_dir / "anchors.ckpt")
    assignments = blob["assignments"].reshape(-1)
    assert len(graph.positives) == len(assignments) == len(positives)
    for v in range(len(assignments)):
        np.testing.assert_array_equal(graph.positives[v], positives[v])
        np.testing.assert_array_equal(graph.negatives[v], negatives[v])
        np.testing.assert_array_equal(anchor_of(v), blob["centers"][int(assignments[v])])


def test_every_binary_output_loads_in_its_dtype_and_shape(tiny_run):
    cfg, _, first = tiny_run
    run_dir = first.run_dir
    count = {name: serial.load_labels(run_dir / "data" / f"{name}.labels").size
             for name in ("train", "query", "database")}
    enc, rng = cfg.encoder_config(), np.random.default_rng(0)
    inits = {"teacher": init_teacher(enc, rng, cfg.teacher_bits),
             **{f"student_{bits}": init_student(enc, rng, bits) for bits in cfg.code_bits}}
    outputs = sorted({out for record in _meta(run_dir).values() for out in record["outputs"]})
    loaded = set()
    for out in outputs:
        path = run_dir / out
        if path.suffix == ".features":
            x = serial.load_features(path)
            want = (count["train"], 1, cfg.model_dim) if path.stem == "embeddings" else \
                (count[path.stem], cfg.frames, cfg.feat_dim)
            assert (x.dtype, x.shape) == (np.float32, want), out
        elif path.suffix == ".codes":
            packed, k = serial.load_codes(path)
            split, _, bits = path.stem.rpartition("_")
            assert k == int(bits), out
            n = count[split.partition("_")[0]]
            assert (packed.dtype, packed.shape) == (np.uint8, (n, (k + 7) // 8)), out
        elif path.name == "anchors.ckpt":
            blob = serial.load_checkpoint(path)
            assert blob["centers"].shape == (cfg.num_anchors, cfg.model_dim)
            assignments = blob["assignments"]
            assert (assignments.dtype, assignments.shape) == (np.int64, (count["train"],))
        elif path.suffix == ".ckpt":
            params = serial.load_checkpoint(path)
            init = inits[path.stem if path.stem == "teacher" else
                         "student_" + path.stem.rpartition("_")[2]]
            assert [(n, a.shape) for n, a in params.items()] == \
                [(n, a.shape) for n, a in init.items()], out
            assert {a.dtype for a in params.values()} == {np.dtype(np.float32)}, out
        elif path.suffix == ".bin":
            positives, negatives, header = serial.load_graph(path)
            assert len(positives) == len(negatives) == header["n"] == count["train"]
        else:
            assert path.suffix in (".labels", ".json", ".txt"), out
            continue
        loaded.add(path.suffix)
    assert loaded == {".features", ".codes", ".ckpt", ".bin"}


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


@pytest.fixture(scope="module")
def tiny_ablation(tmp_path_factory):
    cfg = RunConfig(**TINY)
    work = tmp_path_factory.mktemp("ablation")
    results = pipeline.ablation_suite(cfg, work)
    return cfg, pipeline.run_layout(cfg, work), results


def test_ablation_rerun_reproduces_its_report_and_executes_no_stage(tiny_ablation):
    cfg, run_dir, _ = tiny_ablation
    bits = cfg.code_bits[0]
    tags = [str(bits)] + [f"{v}_{bits}" for v in pipeline.ABLATION_VARIANTS if v != "full"]
    text = (run_dir / "ablation.txt").read_bytes()
    before = _meta(run_dir)
    assert set(before) == {"data", "teacher", "graph"} | {
        f"{stage}_{tag}" for stage in ("student", "encode", "eval") for tag in tags}
    pipeline.ablation_suite(cfg, run_dir.parent)
    assert (run_dir / "ablation.txt").read_bytes() == text
    assert _meta(run_dir) == before


def test_ablation_full_rows_are_the_full_model_metrics(tiny_ablation):
    cfg, run_dir, results = tiny_ablation
    bits = cfg.code_bits[0]
    want = json.loads((run_dir / f"metrics_{bits}.json").read_text())["map"]
    assert results["map"]["full"] == want
    rows = [line.split(" = ") for line in (run_dir / "ablation.txt").read_text().splitlines()
            if line.startswith("map variant=full ")]
    assert dict(rows) == \
        {f"map variant=full k={k}": f"{v:.10g}" for k, v in want.items()}
