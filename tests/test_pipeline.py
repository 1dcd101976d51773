"""Pipeline: batched encoding, rerun stability, the stage cache and the ablation."""

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dkph import encoder, numerics, pipeline, retrieval, serial, synth
from dkph.codes import pack_bits, unpack_bits
from dkph.config import RunConfig
from dkph.exceptions import PipelineError
from dkph.student import PROBE_MODES, init_student, probe_reconstruction
from dkph.teacher import init_teacher
from test_encoder import TOY_VIDEO_BYTES, assert_rel_close, oracle_forward
from test_student import oracle_student

TINY = dict(num_classes=4, videos_per_class=10, frames=4, feat_dim=6, model_dim=8,
            teacher_bits=8, code_bits=(8, 16), teacher_epochs=2, student_epochs=2,
            batch_size=8, num_anchors=4, anchor_neighbors=2)


def test_encode_split_equals_per_video_oracle(monkeypatch):
    monkeypatch.setattr(numerics, "BLOCK_BYTES", 3 * TOY_VIDEO_BYTES)
    cfg = RunConfig(frames=4, feat_dim=6, model_dim=8, ffn_dim=12)
    params = init_student(cfg, np.random.default_rng(0), code_bits=8)
    feats = np.random.default_rng(1).normal(size=(7, 4, 6))
    want = pack_bits(np.stack([oracle_student(x, params)[2] for x in feats]).astype(np.int8))
    np.testing.assert_array_equal(pipeline.encode_split(feats, params), want)


def test_encoding_and_teacher_embeddings_do_not_depend_on_the_block(monkeypatch):
    # float32, as the stages run: the default budget holds all 30 videos
    cfg = RunConfig(frames=4, feat_dim=6, model_dim=8, ffn_dim=12, teacher_bits=8)
    feats = np.random.default_rng(2).normal(size=(30, 4, 6)).astype(np.float32)
    student_params = encoder.cast_params(init_student(cfg, np.random.default_rng(0), 8),
                                         np.float32)
    teacher_params = encoder.cast_params(init_teacher(cfg, np.random.default_rng(1)),
                                         np.float32)
    assert len(encoder.blocks(len(feats), student_params)) == 1
    codes = pipeline.encode_split(feats, student_params)
    means = pipeline._video_embeddings(feats, teacher_params)
    monkeypatch.setattr(numerics, "BLOCK_BYTES", 1)  # one video per block
    assert len(encoder.blocks(len(feats), student_params)) == 30
    np.testing.assert_array_equal(pipeline.encode_split(feats, student_params), codes)
    one_by_one = pipeline._video_embeddings(feats, teacher_params)
    assert one_by_one.dtype == np.float32 and np.array_equal(one_by_one, means)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    cfg = RunConfig(**TINY)
    work = tmp_path_factory.mktemp("work")
    first = pipeline.run_pipeline(cfg, work)
    return cfg, work, first


def _meta(run_dir):
    return {p.stem: json.loads(p.read_text()) for p in sorted((run_dir / "meta").glob("*.json"))}


def _stages(chains):
    """The shared stages, then each chain's stages, in report order."""
    return [*pipeline.SHARED_STAGES] + [f"{name}_{pipeline._tag(bits, variant)}"
                                        for variant, bits in chains
                                        for name in pipeline.CHAIN_STAGES]


def _report_stages(text):
    return [line.split()[1] for line in text.splitlines()
            if line.startswith("stage ") and "wall_time_s" in line]


def test_rerun_reproduces_report_and_executes_no_stage(tiny_run):
    cfg, work, first = tiny_run
    report = (first.run_dir / "report.txt").read_bytes()
    before = _meta(first.run_dir)
    assert set(before) == set(_stages(pipeline.model_chains(cfg)))
    second = pipeline.run_pipeline(cfg, work)
    assert (second.run_dir / "report.txt").read_bytes() == report
    after = _meta(second.run_dir)
    assert {s: m["wall_time_s"] for s, m in after.items()} == \
        {s: m["wall_time_s"] for s, m in before.items()}
    assert after == before


def test_renaming_the_classes_changes_no_metric(tiny_run, tmp_path):
    # training reads no label, so only evaluation sees the new names
    cfg, _, first = tiny_run
    run_dir = pipeline.run_layout(cfg, tmp_path)
    run_dir.mkdir(parents=True)
    pipeline.stage_data(cfg, run_dir)
    rename = {0: 7, 1: 2, 2: 11, 3: 0}  # a bijection onto other class ids
    for name in ("train", "query", "database"):
        path = run_dir / "data" / f"{name}.labels"
        labels = serial.load_labels(path)
        assert set(labels.tolist()) == set(rename)
        serial.save_labels(path, [rename[int(lab)] for lab in labels])
    pipeline.run_pipeline(cfg, tmp_path)
    assert serial.load_labels(run_dir / "data" / "query.labels").max() == 11
    for bits in cfg.code_bits:
        assert (run_dir / f"metrics_{bits}.json").read_bytes() == \
            (first.run_dir / f"metrics_{bits}.json").read_bytes()


def test_dataset_splits_are_the_split_files_with_ids_running_on(tiny_run):
    _, _, first = tiny_run
    data_dir = first.run_dir / "data"
    full = synth.load_dataset_splits(data_dir)
    assert list(full) == ["train", "query", "database"]
    for name, split in full.items():
        np.testing.assert_array_equal(split.features,
                                      serial.load_features(data_dir / f"{name}.features"))
        np.testing.assert_array_equal(split.labels,
                                      serial.load_labels(data_dir / f"{name}.labels"))


def test_evaluate_codes_reads_no_features(tiny_run, monkeypatch):
    _, _, first = tiny_run
    load_labels = serial.load_labels

    def no_features(path):
        raise AssertionError(f"evaluate_codes loaded {path}")

    def no_train_labels(path):
        if Path(path).stem == "train":
            raise AssertionError(f"evaluate_codes loaded {path}")
        return load_labels(path)

    monkeypatch.setattr(serial, "load_features", no_features)
    monkeypatch.setattr(serial, "load_labels", no_train_labels)
    metrics = pipeline.evaluate_codes(first.run_dir, 16)
    assert json.dumps(metrics, sort_keys=True) + "\n" == \
        (first.run_dir / "metrics_16.json").read_text()


def test_evaluate_codes_equals_map_at_k_per_cutoff_then_pr_curve(tiny_run):
    cfg, _, first = tiny_run
    run_dir = first.run_dir
    q_labels, db_labels = (serial.load_labels(run_dir / "data" / f"{name}.labels")
                           for name in ("query", "database"))
    for bits in cfg.code_bits:
        q_packed, _ = serial.load_codes(run_dir / f"query_{bits}.codes")
        d_packed, _ = serial.load_codes(run_dir / f"database_{bits}.codes")
        idx = retrieval.CodeIndex(packed=d_packed, ids=np.arange(db_labels.size), k=bits,
                                  labels=db_labels)
        q_bits = unpack_bits(q_packed, bits)
        maps = {str(k): retrieval.map_at_k(q_bits, q_labels, idx, k=k).value
                for k in retrieval.MAP_KS if k <= idx.n}
        want = {"bits": bits, "map": maps, "pr": retrieval.pr_curve(q_bits, q_labels, idx)}
        assert json.dumps(pipeline.evaluate_codes(run_dir, bits), sort_keys=True) == \
            json.dumps(want, sort_keys=True)


def test_a_width_with_pad_bits_runs_end_to_end(tmp_path):
    # 12-bit codes leave four pad bits in the second byte of every row
    cfg = RunConfig(**{**TINY, "code_bits": (12,)})
    run_dir = pipeline.run_pipeline(cfg, tmp_path).run_dir
    q_labels, db_labels = (serial.load_labels(run_dir / "data" / f"{name}.labels")
                           for name in ("query", "database"))
    (q_packed, k), (d_packed, _) = (serial.load_codes(run_dir / f"{name}_12.codes")
                                    for name in ("query", "database"))
    assert k == 12 and q_packed.shape == (q_labels.size, 2)
    idx = retrieval.CodeIndex.from_bits(unpack_bits(d_packed, 12), labels=db_labels)
    maps, pr = retrieval.evaluate(unpack_bits(q_packed, 12), q_labels, idx,
                                  [k for k in retrieval.MAP_KS if k <= idx.n])
    want = {"bits": 12, "map": {str(k): score.value for k, score in maps.items()}, "pr": pr}
    assert (run_dir / "metrics_12.json").read_text() == json.dumps(want, sort_keys=True) + "\n"


def test_report_shows_the_graph_record(tiny_run):
    _, _, first = tiny_run
    record = _meta(first.run_dir)["graph"]
    lines = (first.run_dir / "report.txt").read_text().splitlines()
    shown = dict(line[len("graph "):].split(" = ") for line in lines
                 if line.startswith("graph "))
    assert list(shown) == ["positive_edges", "negative_edges", "isolated_videos",
                           "positive_precision", "negative_precision"]
    for key, text in shown.items():
        assert text == ("none" if record[key] is None else format(record[key], ".10g"))
    assert record["positive_precision"] is not None   # a float is among the lines


def test_report_prints_a_side_without_edges_as_none(tiny_run, tmp_path):
    cfg, _, first = tiny_run
    run_dir = tmp_path / first.run_dir.name
    shutil.copytree(first.run_dir, run_dir)
    path = run_dir / "meta" / "graph.json"
    record = json.loads(path.read_text())
    path.write_text(json.dumps({**record, "negative_edges": 0, "negative_precision": None}))
    lines = pipeline.build_report(cfg, run_dir).text.splitlines()
    assert "graph negative_edges = 0" in lines and "graph negative_precision = none" in lines


def test_graph_record_counts_the_signed_edges_and_isolated_videos(tiny_run):
    _, _, first = tiny_run
    graph = serial.load_graph(first.run_dir / "graph.bin")
    record = _meta(first.run_dir)["graph"]
    assert (record["positive_edges"], record["negative_edges"]) == \
        (sum(p.size for p in graph.positives), sum(n.size for n in graph.negatives))
    assert record["isolated_videos"] == sum(
        not (p.size or n.size) for p, n in zip(graph.positives, graph.negatives))
    assert record["positive_edges"] > 0 and record["negative_edges"] > 0


def test_graph_record_carries_the_edge_precision_against_the_training_labels(tiny_run):
    _, _, first = tiny_run
    graph = serial.load_graph(first.run_dir / "graph.bin")
    labels = serial.load_labels(first.run_dir / "data" / "train.labels")
    record = _meta(first.run_dir)["graph"]
    want = graph.edge_precision(labels)
    assert (record["positive_precision"], record["negative_precision"]) == want
    assert all(0.0 <= share <= 1.0 for share in want)


def test_training_records_carry_their_optimizer_steps(tiny_run):
    # TINY trains on 20 videos in batches of 8: 3 steps per epoch, the last of 4 videos
    cfg, _, first = tiny_run
    n_train = json.loads((first.run_dir / "data" / "dataset.json").read_text())["train"]
    per_epoch = -(-n_train // cfg.batch_size)
    records = _meta(first.run_dir)
    assert records["teacher"]["optimizer_steps"] == cfg.teacher_epochs * per_epoch
    for bits in cfg.code_bits:
        assert records[f"student_{bits}"]["optimizer_steps"] == cfg.student_epochs * per_epoch
    assert (n_train, per_epoch) == (20, 3)


def test_report_shows_each_training_stage_optimizer_steps(tiny_run):
    cfg, _, first = tiny_run
    records = _meta(first.run_dir)
    lines = (first.run_dir / "report.txt").read_text().splitlines()
    shown = {line.split()[1]: int(line.split(" = ")[1]) for line in lines
             if line.startswith("stage ") and " optimizer_steps = " in line}
    trained = ["teacher", *(f"student_{bits}" for bits in cfg.code_bits)]
    assert list(shown) == trained
    assert shown == {stage: records[stage]["optimizer_steps"] for stage in trained}


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

    def no_labels(path):
        raise AssertionError(f"stage {stage} loaded {path}")

    monkeypatch.setattr(serial, "load_features", only_own_splits)
    monkeypatch.setattr(serial, "load_labels", no_labels)
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


@pytest.mark.parametrize("stage, needs", [("encode", "student"), ("eval", "encode")])
def test_variant_stage_before_its_prerequisite_raises_and_leaves_no_record(tiny_run, stage,
                                                                         needs):
    cfg, _, first = tiny_run
    run = getattr(pipeline, f"stage_{stage}")
    with pytest.raises(PipelineError, match=f"prerequisite stage '{needs}_no_dual_16'") as err:
        run(cfg, first.run_dir, 16, "no_dual")
    assert err.value.stage == f"{stage}_no_dual_16"
    assert not pipeline._meta_path(first.run_dir, f"{stage}_no_dual_16").exists()
    assert not pipeline.stage_completed(first.run_dir, f"{stage}_no_dual_16", cfg)


def test_the_prerequisite_is_checked_before_a_completed_stage_is_skipped(tiny_run, tmp_path):
    cfg, _, first = tiny_run
    run_dir = _copy_without(first, tmp_path, "graph")
    assert pipeline.stage_completed(run_dir, "student_16", cfg)
    with pytest.raises(PipelineError, match="prerequisite stage 'graph'"):
        pipeline.stage_student(cfg, run_dir, 16)


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
    train = serial.load_features(first.run_dir / "data" / "train.features").astype(np.float64)
    want = np.stack([oracle_forward(x, params).mean(axis=0) for x in train])
    got = serial.load_features(first.run_dir / "embeddings.features")
    assert got.shape == (len(train), 1, want.shape[1])
    assert_rel_close(got[:, 0, :], want, tol=2**10 * np.finfo(np.float32).eps)


def test_graph_artifacts_give_the_graph_and_each_video_anchor_centre(tiny_run):
    _, _, first = tiny_run
    graph, anchors = pipeline.load_graph_artifacts(first.run_dir)
    stored = serial.load_graph(first.run_dir / "graph.bin")
    blob = serial.load_checkpoint(first.run_dir / "anchors.ckpt")
    assignments = blob["assignments"].reshape(-1)
    assert graph.n == len(assignments) == stored.n
    np.testing.assert_array_equal(graph.offsets, stored.offsets)
    np.testing.assert_array_equal(graph.indices, stored.indices)
    assert anchors.shape == (len(assignments), blob["centers"].shape[1])
    for v in range(len(assignments)):
        np.testing.assert_array_equal(anchors[v], blob["centers"][int(assignments[v])])


def test_every_binary_output_loads_in_its_dtype_and_shape(tiny_run):
    cfg, _, first = tiny_run
    run_dir = first.run_dir
    count = json.loads((run_dir / "data" / "dataset.json").read_text())
    rng = np.random.default_rng(0)
    inits = {"teacher": init_teacher(cfg, rng),
             **{f"student_{bits}": init_student(cfg, rng, bits) for bits in cfg.code_bits}}
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
            graph = serial.load_graph(path)
            assert graph.offsets.shape == (2, count["train"] + 1)
            assert graph.offsets.dtype == graph.indices.dtype == np.int64
        elif path.suffix == ".labels":
            labels = serial.load_labels(path)
            assert (labels.dtype, labels.shape) == (np.int64, (count[path.stem],)), out
        else:
            assert path.suffix in (".json", ".txt", ".cfg"), out
            continue
        loaded.add(path.suffix)
    assert loaded == {".features", ".codes", ".ckpt", ".bin", ".labels"}


def test_the_run_dir_names_its_own_config(tiny_run):
    cfg, work, first = tiny_run
    assert "config.cfg" in _meta(first.run_dir)["data"]["outputs"]
    saved = RunConfig.load(first.run_dir / "config.cfg")
    assert saved.config_hash() == cfg.config_hash()
    assert f"config_hash = {cfg.config_hash()}\n" in first.text
    # the run's own work directory, not cfg.work_dir, which this run did not use
    assert saved == replace(cfg, work_dir=str(work.resolve()))


def test_the_saved_config_gives_back_the_run_layout(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = RunConfig(**TINY)
    run_dir = pipeline.run_layout(cfg, Path("elsewhere"))  # relative, and not cfg.work_dir
    run_dir.mkdir(parents=True)
    pipeline.stage_data(cfg, run_dir)
    saved = RunConfig.load(run_dir / "config.cfg")
    assert Path(saved.work_dir).is_absolute()
    monkeypatch.chdir(run_dir)  # the saved path does not depend on the working directory
    assert pipeline.run_layout(saved) == (tmp_path / run_dir).resolve()


def test_the_saved_config_gives_back_a_run_layout_whose_path_holds_a_hash(tmp_path):
    # '#' once started a comment anywhere in a line, and cut the loaded path short
    cfg = RunConfig(**TINY)
    run_dir = pipeline.run_layout(cfg, tmp_path / "runs #1")
    run_dir.mkdir(parents=True)
    pipeline.stage_data(cfg, run_dir)
    saved = RunConfig.load(run_dir / "config.cfg")
    assert saved.work_dir == str((tmp_path / "runs #1").resolve())
    assert pipeline.run_layout(saved) == run_dir.resolve()


def test_meta_records_carry_the_code_version(tiny_run):
    _, _, first = tiny_run
    assert {m["code_version"] for m in _meta(first.run_dir).values()} == {pipeline.CODE_VERSION}


def test_meta_records_carry_the_stage_faults_and_peak_rss(tiny_run):
    _, _, first = tiny_run
    for record in _meta(first.run_dir).values():
        for key in ("minor_faults", "peak_rss_kb"):
            assert type(record[key]) is int and record[key] >= 0, (record["stage"], key)


# Six (1600, 512) float32 temporaries per burst, the size of an encoder block's
# activations; prints whether the policy took, the minor faults of five warm
# bursts and the pages they touched.
ALLOCATOR_PROBE = """
import resource
import numpy as np
from dkph import pipeline

def burst():
    arrays = [np.full((1600, 512), 1.0, np.float32) for _ in range(6)]
    return sum(a.nbytes for a in arrays)

took = pipeline._keep_freed_heap()
burst()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
pages = sum(burst() for _ in range(5)) // resource.getpagesize()
print(took, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, pages)
"""


def test_stage_allocator_policy_keeps_freed_blocks_in_the_process():
    # a fresh interpreter, so that no other test's heap state counts
    src = str(Path(pipeline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", ALLOCATOR_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    took, faults, pages = out[0] == "True", int(out[1]), int(out[2])
    if not took:
        pytest.skip("the C library has no mallopt that takes the thresholds")
    assert faults < 0.01 * pages, (faults, pages)


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


def test_a_record_of_another_stage_reruns_that_stage(tiny_run, tmp_path):
    # once taken for the teacher's, so the graph stage failed on a missing
    # embeddings.features
    cfg, _, first = tiny_run
    run_dir = pipeline.run_layout(cfg, tmp_path)
    run_dir.mkdir(parents=True)
    pipeline.stage_data(cfg, run_dir)
    shutil.copy(run_dir / "meta" / "data.json", run_dir / "meta" / "teacher.json")
    assert not pipeline.stage_completed(run_dir, "teacher", cfg)
    pipeline.run_pipeline(cfg, tmp_path)
    assert json.loads((run_dir / "meta" / "teacher.json").read_text())["stage"] == "teacher"
    for bits in cfg.code_bits:
        assert (run_dir / f"metrics_{bits}.json").read_bytes() == \
            (first.run_dir / f"metrics_{bits}.json").read_bytes()


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


@pytest.mark.parametrize("stage, lost, reader", [("data", "data/train.features", "teacher"),
                                                  ("encode_16", "query_16.codes", "eval_16")])
def test_a_record_listing_no_outputs_does_not_hide_a_lost_one(tiny_run, tmp_path, stage, lost,
                                                                reader):
    # the record's own list was once trusted: with "outputs": [] the stage
    # counted as done, and the stage that reads the lost file failed on it
    cfg, _, first = tiny_run
    run_dir = _copy_without(first, tmp_path, reader)
    path = pipeline._meta_path(run_dir, stage)
    path.write_text(json.dumps({**json.loads(path.read_text()), "outputs": []}))
    (run_dir / lost).unlink()
    assert not pipeline.stage_completed(run_dir, stage, cfg)
    pipeline.run_pipeline(cfg, tmp_path)
    assert json.loads(path.read_text())["outputs"] == pipeline.stage_outputs(stage)
    assert (run_dir / lost).read_bytes() == (first.run_dir / lost).read_bytes()
    for done in (stage, reader):
        assert pipeline.stage_completed(run_dir, done, cfg), done


@pytest.fixture(scope="module")
def tiny_ablation(tmp_path_factory):
    cfg = RunConfig(**TINY)
    work = tmp_path_factory.mktemp("ablation")
    report = pipeline.ablation_suite(cfg, work)
    return cfg, report.run_dir, report


def test_ablation_rerun_reproduces_its_report_and_executes_no_stage(tiny_ablation):
    cfg, run_dir, _ = tiny_ablation
    text = (run_dir / "ablation.txt").read_bytes()
    before = _meta(run_dir)
    assert sorted(before) == sorted(_stages(pipeline.model_chains(cfg,
                                                                  pipeline.ABLATION_VARIANTS)))
    pipeline.ablation_suite(cfg, run_dir.parent)
    assert (run_dir / "ablation.txt").read_bytes() == text
    assert _meta(run_dir) == before


def test_run_pipeline_after_the_ablation_runs_no_stage_and_reports_the_same(tiny_ablation):
    # the ablation's full chains are the pipeline's own stages, and the report
    # keeps every variant's rows that are on disk
    cfg, run_dir, ablation = tiny_ablation
    before = _meta(run_dir)
    report = pipeline.run_pipeline(cfg, run_dir.parent)
    assert _meta(run_dir) == before
    assert report.text == ablation.text
    assert (run_dir / "report.txt").read_bytes() == ablation.text.encode()


def test_the_report_covers_exactly_the_chains_that_have_run(tiny_run, tmp_path):
    cfg, _, first = tiny_run
    run_dir = tmp_path / first.run_dir.name
    shutil.copytree(first.run_dir, run_dir)
    for name in pipeline.CHAIN_STAGES:
        pipeline.run_stage(cfg, run_dir, name, ("recon_only",))
    report = pipeline.build_report(cfg, run_dir)
    chains = [(variant, bits) for bits in cfg.code_bits for variant in ("full", "recon_only")]
    assert list(_chain_maps(report.text)) == chains
    assert _report_stages(report.text) == _stages(chains)
    assert (run_dir / "report.txt").read_text() == report.text


def test_a_chain_whose_eval_record_is_stale_drops_out_of_the_report(tiny_ablation, tmp_path):
    cfg, ablation_dir, ablation = tiny_ablation
    run_dir = tmp_path / ablation_dir.name
    shutil.copytree(ablation_dir, run_dir)
    path = run_dir / "meta" / "eval_no_bsim_8.json"
    record = json.loads(path.read_text())
    path.write_text(json.dumps({**record, "code_version": pipeline.CODE_VERSION - 1}))
    text = pipeline.build_report(cfg, run_dir).text
    chains = [chain for chain in pipeline.model_chains(cfg, pipeline.ABLATION_VARIANTS)
              if chain != ("no_bsim", 8)]
    assert list(_chain_maps(text)) == chains
    assert _report_stages(text) == _stages(chains)
    assert text.splitlines() == [line for line in ablation.text.splitlines()
                                 if "_no_bsim_8 " not in line
                                 and " bits=8 variant=no_bsim " not in line]


def _chain_maps(text):
    """{(variant, bits): {k: value text}} of a report's map rows, in row order."""
    maps = {}
    for line in text.splitlines():
        if row := re.fullmatch(r"map bits=(\d+)(?: variant=(\w+))? k=(\d+) = (\S+)", line):
            maps.setdefault((row[2] or "full", int(row[1])), {})[row[3]] = row[4]
    return maps


def test_ablation_full_rows_are_the_full_model_metrics(tiny_ablation):
    cfg, run_dir, report = tiny_ablation
    maps = _chain_maps(report.text)
    assert list(maps) == [(variant, bits) for bits in cfg.code_bits
                          for variant in pipeline.ABLATION_VARIANTS]
    lines = report.text.splitlines()
    for bits in cfg.code_bits:
        want = json.loads((run_dir / f"metrics_{bits}.json").read_text())["map"]
        assert maps["full", bits] == {k: f"{v:.10g}" for k, v in want.items()}
        for k, v in want.items():
            assert f"map bits={bits} k={k} = {v:.10g}" in lines


def test_every_chain_report_rows_are_its_metrics(tiny_ablation):
    cfg, run_dir, report = tiny_ablation
    rows = [line for line in report.text.splitlines() if line.startswith(("map ", "pr "))]
    want = []
    for variant, bits in pipeline.model_chains(cfg, pipeline.ABLATION_VARIANTS):
        metrics = json.loads((run_dir / f"metrics_{pipeline._tag(bits, variant)}.json").read_text())
        chain = f"bits={bits}" if variant == "full" else f"bits={bits} variant={variant}"
        want += [f"map {chain} k={k} = {metrics['map'][str(k)]:.10g}"
                 for k in sorted(map(int, metrics["map"]))]
        want += [f"pr {chain} point={i} recall={recall:.10g} precision={precision:.10g}"
                 for i, (recall, precision) in enumerate(metrics["pr"])]
    assert rows == want
    assert _report_stages(report.text) == \
        _stages(pipeline.model_chains(cfg, pipeline.ABLATION_VARIANTS))


def test_ablation_probes_each_width_full_model(tiny_ablation):
    cfg, run_dir, _ = tiny_ablation
    features = serial.load_features(run_dir / "data" / "database.features")
    lines = (run_dir / "ablation.txt").read_text().splitlines()
    widths = [int(re.match(r"recon_error bits=(\d+) ", line)[1]) for line in lines[2:]]
    assert list(dict.fromkeys(widths)) == list(cfg.code_bits)
    for bits in cfg.code_bits:
        params = encoder.cast_params(serial.load_checkpoint(run_dir / f"student_{bits}.ckpt"),
                                     features.dtype)
        error = probe_reconstruction(features, params)
        for mode in PROBE_MODES:
            assert f"recon_error bits={bits} mode={mode} = {error[mode]:.10g}" in lines


def test_run_stage_runs_a_chain_stage_for_every_chain(tiny_run, tmp_path):
    cfg, _, first = tiny_run
    run_dir = tmp_path / first.run_dir.name
    shutil.copytree(first.run_dir, run_dir)
    before = _meta(run_dir)
    pipeline.run_stage(cfg, run_dir, "student", pipeline.ABLATION_VARIANTS)
    after = _meta(run_dir)
    students = {f"student_{pipeline._tag(bits, variant)}"
                for variant, bits in pipeline.model_chains(cfg, pipeline.ABLATION_VARIANTS)}
    assert set(after) == set(before) | students
    assert {s: after[s] for s in before} == before  # the full model's students were done
    for stage in students:
        assert pipeline.stage_completed(run_dir, stage, cfg), stage
