"""End-to-end orchestration: data -> teacher -> graph -> student -> codes -> report.

Every stage is checkpointed under ``<work_dir>/run-<hash12>/`` where the
hash covers all hyperparameters. A stage whose meta record and outputs
already exist, and whose record carries the current ``CODE_VERSION``, is
skipped, so reruns with the same config are cheap and
reproduce the previous report byte for byte (wall times are recorded when
a stage first executes and re-read afterwards).

Stage artifacts
    data       {train,query,database}.{features,labels} + dataset.json
    teacher    teacher.ckpt, teacher_log.txt, embeddings.features
    graph      graph.bin, anchors.ckpt
    student_K  student_K.ckpt, student_K_log.txt
    encode_K   query_K.codes, database_K.codes
    eval_K     metrics_K.json
    report.txt regenerated deterministically from the above on every run
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import serial
from .codes import pack_bits, unpack_bits
from .config import RunConfig
from .encoder import blocks, cast_params, encode_forward
from .exceptions import PipelineError
from .graph import (
    AnchorSet,
    SignedGraph,
    build_affinity,
    build_signed_graph,
    default_bandwidth,
    kmeans,
)
from .retrieval import CodeIndex, map_at_k, pr_curve
from .student import (
    StudentParams,
    probe_reconstruction,
    student_forward,
    train_student,
    write_training_log,
)
from .synth import generate_synthetic, load_dataset_splits, load_split, load_split_labels
from .teacher import TeacherParams, teacher_forward, train_teacher

MAP_KS = (5, 20, 60, 100)

# Written into every meta record. Bump it whenever the code changes what a
# stage produces for the same config, so that old artifacts are rebuilt;
# records without the field count as version 1. Version 2: the batched
# encoder passes sum floats in another order (results move in the last ulp).
# Version 3: teacher, student and encoding compute in float32, the precision
# of the feature files, instead of widening them to float64.
CODE_VERSION = 3


@dataclass
class PipelineReport:
    run_dir: Path
    config_hash: str
    text: str
    metrics: dict


def run_layout(cfg: RunConfig, work_dir=None) -> Path:
    base = Path(work_dir if work_dir is not None else cfg.work_dir)
    return base / f"run-{cfg.config_hash()[:12]}"


def _meta_path(run_dir: Path, stage: str) -> Path:
    return run_dir / "meta" / f"{stage}.json"


def stage_completed(run_dir: Path, stage: str, cfg: RunConfig) -> bool:
    meta = _meta_path(run_dir, stage)
    if not meta.exists():
        return False
    record = json.loads(meta.read_text())
    if record.get("config_hash") != cfg.config_hash():
        return False
    if record.get("code_version") != CODE_VERSION:
        return False
    return all((run_dir / out).exists() for out in record["outputs"])


def _run_stage(run_dir: Path, stage: str, cfg: RunConfig, outputs: list[str], fn) -> None:
    """Execute ``fn`` unless the stage is already complete; record timing."""
    if stage_completed(run_dir, stage, cfg):
        return
    start = time.perf_counter()
    try:
        fn()
    except PipelineError:
        raise
    except Exception as err:
        raise PipelineError(stage, f"{type(err).__name__}: {err}") from err
    for out in outputs:
        if not (run_dir / out).exists():
            raise PipelineError(stage, f"expected output {out} was not produced")
    meta = {"stage": stage, "config_hash": cfg.config_hash(), "code_version": CODE_VERSION,
            "wall_time_s": round(time.perf_counter() - start, 3), "outputs": outputs}
    path = _meta_path(run_dir, stage)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(meta, sort_keys=True) + "\n")


def _require(run_dir: Path, stage: str, cfg: RunConfig, needed_by: str) -> None:
    if not stage_completed(run_dir, stage, cfg):
        raise PipelineError(needed_by, f"prerequisite stage {stage!r} has not run; "
                                       f"run it first (work dir {run_dir})")


# -- individual stages ----------------------------------------------------


def stage_data(cfg: RunConfig, run_dir: Path) -> None:
    def fn():
        dataset = generate_synthetic(cfg.synth_config())
        data_dir = run_dir / "data"
        data_dir.mkdir(parents=True, exist_ok=True)
        for name, split in dataset.splits.items():
            serial.save_features(data_dir / f"{name}.features", split.features)
            serial.save_labels(data_dir / f"{name}.labels", split.labels)
        summary = {"classes": cfg.num_classes,
                   "train": int(dataset.train.ids.size),
                   "query": int(dataset.query.ids.size),
                   "database": int(dataset.database.ids.size),
                   "prototype_accuracy": dataset.prototype_accuracy}
        (data_dir / "dataset.json").write_text(json.dumps(summary, sort_keys=True) + "\n")

    outputs = [f"data/{n}.{kind}" for n in ("train", "query", "database")
               for kind in ("features", "labels")] + ["data/dataset.json"]
    _run_stage(run_dir, "data", cfg, outputs, fn)


def stage_teacher(cfg: RunConfig, run_dir: Path) -> None:
    _require(run_dir, "data", cfg, needed_by="teacher")

    def fn():
        train = load_split(run_dir / "data", "train")
        result = train_teacher(train.features, cfg.encoder_config(),
                               epochs=cfg.teacher_epochs, code_bits=cfg.teacher_bits,
                               batch_size=cfg.batch_size, learn_rate=cfg.learn_rate,
                               mask_ratio=cfg.mask_ratio, seed=cfg.train_seed)
        serial.save_checkpoint(run_dir / "teacher.ckpt", result.params.as_dict())
        with open(run_dir / "teacher_log.txt", "w") as f:
            f.write(f"eval_before={result.eval_before:.10g}\n")
            for epoch, loss in enumerate(result.epoch_losses):
                f.write(f"epoch={epoch} recon={loss:.10g}\n")
            f.write(f"eval_after={result.eval_after:.10g}\n")
        means = np.concatenate([
            encode_forward(train.features[blk], result.params.encoder)[0].mean
            for blk in blocks(len(train.features))
        ])
        serial.save_features(run_dir / "embeddings.features", means[:, None, :])

    _run_stage(run_dir, "teacher", cfg,
               ["teacher.ckpt", "teacher_log.txt", "embeddings.features"], fn)


def stage_graph(cfg: RunConfig, run_dir: Path) -> None:
    _require(run_dir, "teacher", cfg, needed_by="graph")

    def fn():
        means = serial.load_features(run_dir / "embeddings.features")[:, 0, :]
        anchors = kmeans(means, cfg.num_anchors, seed=cfg.train_seed)
        p = cfg.anchor_neighbors
        alpha = cfg.bandwidth if cfg.bandwidth > 0 else default_bandwidth(means, anchors, p)
        z = build_affinity(means, anchors, p=p, alpha=alpha)
        graph = build_signed_graph(z, cfg.lambda1, cfg.lambda2)
        serial.save_graph(run_dir / "graph.bin", graph.positives, graph.negatives,
                          n_centers=cfg.num_anchors, p=p, alpha=alpha,
                          lambda1=cfg.lambda1, lambda2=cfg.lambda2, seed=cfg.train_seed)
        serial.save_checkpoint(run_dir / "anchors.ckpt", {
            "centers": anchors.centers,
            "assignments": anchors.assignments.astype(np.float64)[None, :],
        })

    _run_stage(run_dir, "graph", cfg, ["graph.bin", "anchors.ckpt"], fn)


def load_graph_artifacts(run_dir: Path) -> tuple[SignedGraph, AnchorSet, float]:
    positives, negatives, header = serial.load_graph(run_dir / "graph.bin")
    graph = SignedGraph(positives=positives, negatives=negatives)
    blob = serial.load_checkpoint(run_dir / "anchors.ckpt")
    anchors = AnchorSet(centers=blob["centers"],
                        assignments=blob["assignments"].reshape(-1).astype(np.int64),
                        inertia=0.0)
    return graph, anchors, header["alpha"]


def stage_student(cfg: RunConfig, run_dir: Path, bits: int) -> None:
    _require(run_dir, "graph", cfg, needed_by=f"student_{bits}")

    def fn():
        train = load_split(run_dir / "data", "train")
        graph, anchors, _ = load_graph_artifacts(run_dir)
        anchor_of = lambda v: anchors.centers[anchors.assignments[v]]
        result = train_student(train.features, cfg.encoder_config(), graph, anchor_of,
                               cfg.loss_weights(), code_bits=bits,
                               epochs=cfg.student_epochs, batch_size=cfg.batch_size,
                               seed=cfg.train_seed)
        serial.save_checkpoint(run_dir / f"student_{bits}.ckpt", result.params.as_dict())
        write_training_log(run_dir / f"student_{bits}_log.txt", result.history)

    _run_stage(run_dir, f"student_{bits}", cfg,
               [f"student_{bits}.ckpt", f"student_{bits}_log.txt"], fn)


def encode_split(features: np.ndarray, params: StudentParams) -> np.ndarray:
    """Hard codes for every video; returns packed uint8 rows."""
    bits = np.concatenate([student_forward(features[blk], params).code
                           for blk in blocks(len(features))])
    return pack_bits(bits.astype(np.int8))


def stage_encode(cfg: RunConfig, run_dir: Path, bits: int) -> None:
    _require(run_dir, f"student_{bits}", cfg, needed_by=f"encode_{bits}")

    def fn():
        features = {name: load_split(run_dir / "data", name).features
                    for name in ("query", "database")}
        params = cast_params(StudentParams.from_dict(
            serial.load_checkpoint(run_dir / f"student_{bits}.ckpt")), features["query"].dtype)
        for name, x in features.items():
            serial.save_codes(run_dir / f"{name}_{bits}.codes", encode_split(x, params), bits)

    _run_stage(run_dir, f"encode_{bits}", cfg,
               [f"query_{bits}.codes", f"database_{bits}.codes"], fn)


def _map_scores(run_dir: Path, tag: str, bits: int, splits) -> tuple[dict, np.ndarray, CodeIndex]:
    """mAP@k for each of MAP_KS that the database holds, of query_<tag>.codes
    against database_<tag>.codes; also the query bits and the index.

    ``splits`` maps "query" and "database" to objects with labels and ids.
    """
    query, db = splits["query"], splits["database"]
    q_packed, _ = serial.load_codes(run_dir / f"query_{tag}.codes")
    d_packed, _ = serial.load_codes(run_dir / f"database_{tag}.codes")
    idx = CodeIndex(packed=d_packed, ids=db.ids, k=bits, labels=db.labels)
    q_bits = unpack_bits(q_packed, bits)
    maps = {str(k): map_at_k(q_bits, query.labels, idx, k=k, query_ids=query.ids).value
            for k in MAP_KS if k <= idx.n}
    return maps, q_bits, idx


def evaluate_codes(run_dir: Path, bits: int) -> dict:
    splits = load_split_labels(run_dir / "data")
    maps, q_bits, idx = _map_scores(run_dir, str(bits), bits, splits)
    query = splits["query"]
    return {"bits": bits, "map": maps,
            "pr": pr_curve(q_bits, query.labels, idx, query_ids=query.ids)}


def stage_eval(cfg: RunConfig, run_dir: Path, bits: int) -> None:
    _require(run_dir, f"encode_{bits}", cfg, needed_by=f"eval_{bits}")

    def fn():
        metrics = evaluate_codes(run_dir, bits)
        (run_dir / f"metrics_{bits}.json").write_text(
            json.dumps(metrics, sort_keys=True) + "\n")

    _run_stage(run_dir, f"eval_{bits}", cfg, [f"metrics_{bits}.json"], fn)


# -- report + end-to-end ---------------------------------------------------


def stage_names(cfg: RunConfig) -> list[str]:
    names = ["data", "teacher", "graph"]
    for bits in cfg.code_bits:
        names += [f"student_{bits}", f"encode_{bits}", f"eval_{bits}"]
    return names


def build_report(cfg: RunConfig, run_dir: Path) -> PipelineReport:
    """Assemble report.txt from stage outputs; stable field order."""
    lines = ["dkph run report", f"config_hash = {cfg.config_hash()}"]
    summary = json.loads((run_dir / "data" / "dataset.json").read_text())
    for key in ("classes", "train", "query", "database"):
        lines.append(f"dataset {key} = {summary[key]}")
    lines.append(f"dataset prototype_accuracy = {summary['prototype_accuracy']:.10g}")
    for stage in stage_names(cfg):
        record = json.loads(_meta_path(run_dir, stage).read_text())
        lines.append(f"stage {stage} wall_time_s = {record['wall_time_s']:.3f}")
    metrics = {}
    for bits in cfg.code_bits:
        m = json.loads((run_dir / f"metrics_{bits}.json").read_text())
        metrics[bits] = m
        for k in sorted(int(x) for x in m["map"]):
            lines.append(f"map bits={bits} k={k} = {m['map'][str(k)]:.10g}")
        for i, (recall, precision) in enumerate(m["pr"]):
            lines.append(f"pr bits={bits} point={i} recall={recall:.10g} "
                         f"precision={precision:.10g}")
    text = "\n".join(lines) + "\n"
    (run_dir / "report.txt").write_text(text)
    return PipelineReport(run_dir=run_dir, config_hash=cfg.config_hash(),
                          text=text, metrics=metrics)


def run_pipeline(cfg: RunConfig, work_dir=None) -> PipelineReport:
    """Run every stage (skipping completed ones) and write report.txt."""
    run_dir = run_layout(cfg, work_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    stage_data(cfg, run_dir)
    stage_teacher(cfg, run_dir)
    stage_graph(cfg, run_dir)
    for bits in cfg.code_bits:
        stage_student(cfg, run_dir, bits)
        stage_encode(cfg, run_dir, bits)
        stage_eval(cfg, run_dir, bits)
    return build_report(cfg, run_dir)


# -- ablations -------------------------------------------------------------

ABLATION_VARIANTS = ("full", "recon_only", "no_bsim", "no_tsim", "no_dual")


def _variant_weights(cfg: RunConfig, variant: str):
    w = cfg.loss_weights()
    if variant == "recon_only":
        w.gamma1 = 0.0
        w.gamma2 = 0.0
    elif variant == "no_bsim":
        w.gamma1 = 0.0
    elif variant == "no_tsim":
        w.gamma2 = 0.0
    return w


def ablation_suite(cfg: RunConfig, work_dir=None) -> dict:
    """Retrain loss/structure variants at the first code width and probe the
    trained full model's reconstruction with each stream removed.

    Returns a dict and writes ablation.txt next to the run report.
    """
    run_dir = run_layout(cfg, work_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    bits = cfg.code_bits[0]
    stage_data(cfg, run_dir)
    stage_teacher(cfg, run_dir)
    stage_graph(cfg, run_dir)
    stage_student(cfg, run_dir, bits)
    stage_encode(cfg, run_dir, bits)
    stage_eval(cfg, run_dir, bits)

    splits = load_dataset_splits(run_dir / "data")
    train = splits["train"]
    graph, anchors, _ = load_graph_artifacts(run_dir)
    anchor_of = lambda v: anchors.centers[anchors.assignments[v]]

    results: dict = {"bits": bits, "map": {}, "recon_error": {}}
    results["map"]["full"] = json.loads(
        (run_dir / f"metrics_{bits}.json").read_text())["map"]

    for variant in ABLATION_VARIANTS[1:]:
        stage = f"ablate_{variant}_{bits}"

        def fn(variant=variant, stage=stage):
            result = train_student(
                train.features, cfg.encoder_config(), graph, anchor_of,
                _variant_weights(cfg, variant), code_bits=bits,
                epochs=cfg.student_epochs, batch_size=cfg.batch_size,
                seed=cfg.train_seed, dual_stream=(variant != "no_dual"))
            serial.save_checkpoint(run_dir / f"{stage}.ckpt", result.params.as_dict())
            for name in ("query", "database"):
                packed = encode_split(splits[name].features, result.params)
                serial.save_codes(run_dir / f"{name}_{stage}.codes", packed, bits)

        _run_stage(run_dir, stage, cfg,
                   [f"{stage}.ckpt", f"query_{stage}.codes", f"database_{stage}.codes"], fn)

        results["map"][variant] = _map_scores(run_dir, stage, bits, splits)[0]

    # information decomposition on the trained full model, database split
    db_features = splits["database"].features
    full = cast_params(
        StudentParams.from_dict(serial.load_checkpoint(run_dir / f"student_{bits}.ckpt")),
        db_features.dtype)
    for mode in ("intact", "drop_code", "drop_latent", "mean_latent"):
        results["recon_error"][mode] = probe_reconstruction(db_features, full, mode)

    lines = ["dkph ablation report", f"config_hash = {cfg.config_hash()}",
             f"bits = {bits}"]
    for variant in ABLATION_VARIANTS:
        for k in sorted(int(x) for x in results["map"][variant]):
            lines.append(f"map variant={variant} k={k} = "
                         f"{results['map'][variant][str(k)]:.10g}")
    for mode in ("intact", "drop_code", "drop_latent", "mean_latent"):
        lines.append(f"recon_error mode={mode} = {results['recon_error'][mode]:.10g}")
    intact = results["recon_error"]["intact"]
    lines.append(f"recon_error drop_latent_over_drop_code = "
                 f"{results['recon_error']['drop_latent'] / results['recon_error']['drop_code']:.10g}")
    lines.append(f"recon_error mean_latent_increase = "
                 f"{(results['recon_error']['mean_latent'] - intact) / intact:.10g}")
    (run_dir / "ablation.txt").write_text("\n".join(lines) + "\n")
    return results
