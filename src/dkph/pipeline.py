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
    student_V_K, encode_V_K, eval_V_K
               as student_K, encode_K and eval_K with V_K in place of K, for
               each ablation variant V other than "full", at the first width
    ablation.txt  the variants' mAP and stream probes of student_K.ckpt,
               regenerated on every ablation_suite call
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import serial
from .codes import pack_bits, unpack_bits
from .config import RunConfig
from .encoder import Params, blocks, cast_params, encode_forward
from .exceptions import PipelineError
from .graph import (
    SignedGraph,
    build_affinity,
    build_signed_graph,
    default_bandwidth,
    kmeans,
)
from .retrieval import MAP_KS, CodeIndex, map_at_k, pr_curve
from .student import (
    PROBE_MODES,
    probe_reconstruction,
    student_forward,
    train_student,
    write_training_log,
)
from .synth import generate_synthetic, load_split, load_split_labels
from .teacher import train_teacher

# Written into every meta record. Bump it whenever the code changes what a
# stage produces for the same config, so that old artifacts are rebuilt;
# records without the field count as version 1. Version 2: the batched
# encoder passes sum floats in another order (results move in the last ulp).
# Version 3: teacher, student and encoding compute in float32, the precision
# of the feature files, instead of widening them to float64.
# Version 4: every binary artifact is one container of named arrays, each
# stored in its own dtype and shape (see ``serial``).
CODE_VERSION = 4


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
    try:
        record = json.loads(_meta_path(run_dir, stage).read_text())
    except (OSError, ValueError):  # missing, or damaged outside the pipeline
        return False
    if record.get("config_hash") != cfg.config_hash():
        return False
    if record.get("code_version") != CODE_VERSION:
        return False
    return all((run_dir / out).exists() for out in record["outputs"])


def _run_stage(run_dir: Path, stage: str, cfg: RunConfig, outputs: list[str], fn) -> None:
    """Execute ``fn`` unless the stage is already complete; record timing."""
    if stage_completed(run_dir, stage, cfg):
        return
    # no record may outlive a run of fn() that fails half way through its outputs
    path = _meta_path(run_dir, stage)
    path.unlink(missing_ok=True)
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
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(meta, sort_keys=True) + "\n")
    os.replace(tmp, path)  # a crash leaves either no record or a whole one


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
        serial.save_checkpoint(run_dir / "teacher.ckpt", result.params)
        with open(run_dir / "teacher_log.txt", "w") as f:
            f.write(f"eval_before={result.eval_before:.10g}\n")
            for epoch, loss in enumerate(result.epoch_losses):
                f.write(f"epoch={epoch} recon={loss:.10g}\n")
            f.write(f"eval_after={result.eval_after:.10g}\n")
        means = np.concatenate([
            encode_forward(train.features[blk], result.params)[0].mean(axis=1)
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
            "assignments": anchors.assignments,
        })

    _run_stage(run_dir, "graph", cfg, ["graph.bin", "anchors.ckpt"], fn)


def load_graph_artifacts(run_dir: Path):
    """The signed graph, and ``anchor_of``: training video -> its teacher
    anchor centre."""
    positives, negatives, _ = serial.load_graph(run_dir / "graph.bin")
    blob = serial.load_checkpoint(run_dir / "anchors.ckpt")
    centers, assignments = blob["centers"], blob["assignments"]
    graph = SignedGraph(positives=positives, negatives=negatives)
    return graph, lambda v: centers[assignments[v]]


# Each ablation variant and the loss weights it sets to zero; "no_dual" keeps
# every weight and trains without the temporal head.
ABLATION_VARIANTS = {"full": (), "recon_only": ("gamma1", "gamma2"), "no_bsim": ("gamma1",),
                     "no_tsim": ("gamma2",), "no_dual": ()}


def _tag(bits: int, variant: str) -> str:
    """Names a width's model in its stages and artifacts: the width for the
    full model, <variant>_<width> for an ablation variant."""
    return str(bits) if variant == "full" else f"{variant}_{bits}"


def stage_student(cfg: RunConfig, run_dir: Path, bits: int, variant: str = "full") -> None:
    tag = _tag(bits, variant)
    _require(run_dir, "graph", cfg, needed_by=f"student_{tag}")

    def fn():
        train = load_split(run_dir / "data", "train")
        graph, anchor_of = load_graph_artifacts(run_dir)
        weights = replace(cfg.loss_weights(), **dict.fromkeys(ABLATION_VARIANTS[variant], 0.0))
        result = train_student(train.features, cfg.encoder_config(), graph, anchor_of,
                               weights, code_bits=bits,
                               epochs=cfg.student_epochs, batch_size=cfg.batch_size,
                               seed=cfg.train_seed, dual_stream=variant != "no_dual")
        serial.save_checkpoint(run_dir / f"student_{tag}.ckpt", result.params)
        write_training_log(run_dir / f"student_{tag}_log.txt", result.history)

    _run_stage(run_dir, f"student_{tag}", cfg,
               [f"student_{tag}.ckpt", f"student_{tag}_log.txt"], fn)


def encode_split(features: np.ndarray, params: Params) -> np.ndarray:
    """Hard codes for every video; returns packed uint8 rows."""
    bits = np.concatenate([student_forward(features[blk], params).code
                           for blk in blocks(len(features))])
    return pack_bits(bits.astype(np.int8))


def stage_encode(cfg: RunConfig, run_dir: Path, bits: int, variant: str = "full") -> None:
    tag = _tag(bits, variant)
    _require(run_dir, f"student_{tag}", cfg, needed_by=f"encode_{tag}")

    def fn():
        features = {name: load_split(run_dir / "data", name).features
                    for name in ("query", "database")}
        params = cast_params(serial.load_checkpoint(run_dir / f"student_{tag}.ckpt"),
                             features["query"].dtype)
        for name, x in features.items():
            serial.save_codes(run_dir / f"{name}_{tag}.codes", encode_split(x, params), bits)

    _run_stage(run_dir, f"encode_{tag}", cfg,
               [f"query_{tag}.codes", f"database_{tag}.codes"], fn)


def evaluate_codes(run_dir: Path, bits: int, variant: str = "full") -> dict:
    """mAP@k for each of MAP_KS that the database holds, and the PR curve, of
    a width's query codes against its database codes."""
    tag = _tag(bits, variant)
    splits = load_split_labels(run_dir / "data")
    query, db = splits["query"], splits["database"]
    q_packed, _ = serial.load_codes(run_dir / f"query_{tag}.codes")
    d_packed, _ = serial.load_codes(run_dir / f"database_{tag}.codes")
    idx = CodeIndex(packed=d_packed, ids=db.ids, k=bits, labels=db.labels)
    q_bits = unpack_bits(q_packed, bits)
    maps = {str(k): map_at_k(q_bits, query.labels, idx, k=k, query_ids=query.ids).value
            for k in MAP_KS if k <= idx.n}
    return {"bits": bits, "map": maps,
            "pr": pr_curve(q_bits, query.labels, idx, query_ids=query.ids)}


def stage_eval(cfg: RunConfig, run_dir: Path, bits: int, variant: str = "full") -> None:
    tag = _tag(bits, variant)
    _require(run_dir, f"encode_{tag}", cfg, needed_by=f"eval_{tag}")

    def fn():
        metrics = evaluate_codes(run_dir, bits, variant)
        (run_dir / f"metrics_{tag}.json").write_text(
            json.dumps(metrics, sort_keys=True) + "\n")

    _run_stage(run_dir, f"eval_{tag}", cfg, [f"metrics_{tag}.json"], fn)


def _model_stages(cfg: RunConfig, run_dir: Path, bits: int, variant: str = "full") -> None:
    """Train, encode and evaluate one width's model."""
    stage_student(cfg, run_dir, bits, variant)
    stage_encode(cfg, run_dir, bits, variant)
    stage_eval(cfg, run_dir, bits, variant)


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
        _model_stages(cfg, run_dir, bits)
    return build_report(cfg, run_dir)


def ablation_suite(cfg: RunConfig, work_dir=None) -> dict:
    """Train, encode and evaluate every ablation variant at the first code
    width, and probe the trained full model's reconstruction with each stream
    removed.

    Returns a dict and writes ablation.txt next to the run report.
    """
    run_dir = run_layout(cfg, work_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    bits = cfg.code_bits[0]
    stage_data(cfg, run_dir)
    stage_teacher(cfg, run_dir)
    stage_graph(cfg, run_dir)
    results: dict = {"bits": bits, "map": {}}
    lines = ["dkph ablation report", f"config_hash = {cfg.config_hash()}",
             f"bits = {bits}"]
    for variant in ABLATION_VARIANTS:
        _model_stages(cfg, run_dir, bits, variant)
        maps = json.loads((run_dir / f"metrics_{_tag(bits, variant)}.json").read_text())["map"]
        results["map"][variant] = maps
        for k in sorted(int(x) for x in maps):
            lines.append(f"map variant={variant} k={k} = {maps[str(k)]:.10g}")

    # information decomposition on the trained full model, database split
    db_features = load_split(run_dir / "data", "database").features
    full = cast_params(serial.load_checkpoint(run_dir / f"student_{bits}.ckpt"),
                       db_features.dtype)
    results["recon_error"] = error = probe_reconstruction(db_features, full)
    for mode in PROBE_MODES:
        lines.append(f"recon_error mode={mode} = {error[mode]:.10g}")
    lines.append("recon_error drop_latent_over_drop_code = "
                 f"{error['drop_latent'] / error['drop_code']:.10g}")
    lines.append("recon_error mean_latent_increase = "
                 f"{(error['mean_latent'] - error['intact']) / error['intact']:.10g}")
    (run_dir / "ablation.txt").write_text("\n".join(lines) + "\n")
    return results
