"""End-to-end orchestration: data -> teacher -> graph -> student -> codes -> report.

Every stage is checkpointed under ``<work_dir>/run-<hash12>/`` where the
hash covers all hyperparameters. A stage whose meta record and outputs
already exist, and whose record names that stage and carries the current
``CODE_VERSION``, is skipped, so reruns with the same config are cheap and
reproduce the previous report byte for byte (wall times are recorded when
a stage first executes and re-read afterwards).

Stage artifacts
    data       {train,query,database}.{features,labels} (``synth.SPLITS``; the
               labels an int64 ``serial`` container) + dataset.json,
               and config.cfg (the run's RunConfig, loadable with RunConfig.load,
               with work_dir the absolute path of the run's parent directory)
    teacher    teacher.ckpt, teacher_log.txt, embeddings.features (each training
               video's frame mean of the teacher encoder's outputs,
               ``encoder.encode_means``, as an (N, 1, model_dim) feature file)
    graph      graph.bin, anchors.ckpt
    student_K  student_K.ckpt, student_K_log.txt
    encode_K   query_K.codes, database_K.codes
    eval_K     metrics_K.json
    student_V_K, encode_V_K, eval_V_K
               as student_K, encode_K and eval_K with V_K in place of K, for
               each ablation variant V other than "full", at every width K
    report.txt regenerated by ``build_report`` (on every ``run_pipeline``,
               ``ablation_suite`` or CLI ``eval``) from the run directory:
               the shared stages, and every chain whose eval stage has
               completed, whichever call ran it
    ablation.txt  the stream probes of each width's student_K.ckpt,
               regenerated on every ablation_suite call

The two training logs are ``optim.write_log`` rows: teacher_log.txt is an
``eval_before`` line, one ``epoch recon`` line per epoch and an
``eval_after`` line; student_K_log.txt is one line per epoch of
``epoch recon bsim tsim total`` and the three ``share_*`` values.

Run order. ``run_stage`` is the one walker of the stage grid: it runs a
SHARED_STAGES stage once, or a CHAIN_STAGES stage for every (variant, width)
chain of ``model_chains``. ``run_pipeline`` and each CLI stage command call
it stage by stage: data, teacher, graph, then student, encode and eval, each
over every chain. No chain reads another chain's outputs, and every stage
seeds its generators from the config, so the order changes no artifact.
``ablation_suite``'s "full" chains are ``run_pipeline``'s, so either call
reuses the other's stages. ``variants`` decides only what runs: the report
covers every completed chain, so a ``run_pipeline`` after an ablation runs
no stage and rewrites report.txt byte for byte, variant rows included.

A stage's meta record also carries its cost in the process that ran it:
``minor_faults``, the page faults taken during the stage, and
``peak_rss_kb``, the process's peak resident set afterwards (both from
``getrusage``, whose peak is in kilobytes on Linux; ``report.txt`` shows
neither). The graph stage's record also carries the signed graph's
``positive_edges``, ``negative_edges`` and ``isolated_videos`` (videos with
no edge of either sign), and its ``positive_precision`` and
``negative_precision`` against the training labels
(``SignedGraph.edge_precision``; null for a side without edges), and
report.txt shows these five (null as ``none``). The labels go into the
record and the report only: no model is trained on them. The teacher's
and each student's record carries its ``optimizer_steps``, one Adam step
per batch of every epoch, and report.txt shows it after the stage's wall
time.

Memory
    The encoder passes allocate temporaries of up to about
    ``numerics.BLOCK_BYTES``, the work-block budget every row-blocked pass
    shares, each for every block of videos. Left to itself, glibc raises
    its mmap threshold to the largest block freed so far and trims the heap
    top whenever more than twice that is free, so every block returns its
    memory to the kernel and page-faults it back in. Before each stage,
    ``_keep_freed_heap`` sets both thresholds once for the process with
    ``mallopt``: arrays up to 32 MiB come from the heap, and up to 256 MiB
    of freed heap stays in the process. Both must be set, because setting
    either one turns off glibc's dynamic thresholds, and a trim threshold
    alone would leave every array of 128 KiB or more mmapped. The setting
    is process-wide and changes no result. Off glibc, where there is no
    ``mallopt``, it does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import json
import logging
import os
import resource
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import serial
from .codes import pack_bits
from .config import RunConfig
from .encoder import Params, cast_params, encode_forward, encode_means, forward_blocks
from .exceptions import PipelineError
from .graph import build_affinity, build_signed_graph, kmeans
from .optim import optimizer_steps, write_log
from .retrieval import MAP_KS, CodeIndex, evaluate_packed
from .student import (
    PROBE_MODES,
    probe_reconstruction,
    student_code,
    train_student,
)
from .synth import SPLITS, generate_synthetic
from .teacher import train_teacher

logger = logging.getLogger(__name__)

# Written into every meta record. Bump it whenever the code changes what a
# stage produces for the same config, so that old artifacts are rebuilt;
# records without the field count as version 1 (CHANGES.md has each
# version's reason). Version 15: the data stage writes each split's labels
# as a ``serial`` container of int64, not as text, and ``serial.load_labels``
# refuses the text files that a version-14 record names.
CODE_VERSION = 15

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@dataclass
class PipelineReport:
    run_dir: Path
    text: str


def run_layout(cfg: RunConfig, work_dir=None) -> Path:
    base = Path(work_dir if work_dir is not None else cfg.work_dir)
    return base / f"run-{cfg.config_hash()[:12]}"


def _meta_path(run_dir: Path, stage: str) -> Path:
    return run_dir / "meta" / f"{stage}.json"


# The files each stage writes, relative to the run dir, by the stage's name
# up to its first "_"; a chain stage's {tag} is the rest of its name.
_STAGE_OUTPUTS = {
    "data": (*(f"data/{n}.{kind}" for n in SPLITS for kind in ("features", "labels")),
             "data/dataset.json", "config.cfg"),
    "teacher": ("teacher.ckpt", "teacher_log.txt", "embeddings.features"),
    "graph": ("graph.bin", "anchors.ckpt"),
    "student": ("student_{tag}.ckpt", "student_{tag}_log.txt"),
    "encode": ("query_{tag}.codes", "database_{tag}.codes"),
    "eval": ("metrics_{tag}.json",),
}


def stage_outputs(stage: str) -> list[str]:
    """The outputs of stage ``stage`` (``data``, ``student_<tag>``, ...): what
    ``_checkpoint_stage`` requires of it and ``stage_completed`` checks."""
    name, _, tag = stage.partition("_")
    return [out.format(tag=tag) for out in _STAGE_OUTPUTS[name]]


def stage_completed(run_dir: Path, stage: str, cfg: RunConfig) -> bool:
    """True when the stage's record is current and every one of its
    ``stage_outputs`` exists; the output list the record carries is not read."""
    try:
        record = json.loads(_meta_path(run_dir, stage).read_text())
    except (OSError, ValueError):  # missing, or damaged outside the pipeline
        return False
    if not isinstance(record, dict):
        return False  # valid JSON, but not a stage record
    if record.get("stage") != stage or record.get("config_hash") != cfg.config_hash():
        return False  # another stage's record, or another config's
    if record.get("code_version") != CODE_VERSION:
        return False
    return all((run_dir / out).exists() for out in stage_outputs(stage))


@functools.cache
def _keep_freed_heap() -> bool:
    """Keep freed heap in the process, once per process (module docstring, Memory).
    True when the allocator took both settings."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt: not glibc
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    trim_set = mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    return bool(mmap_set and trim_set)


def _checkpoint_stage(run_dir: Path, cfg: RunConfig, stage: str, needs: str | None, fn) -> None:
    """Execute ``fn`` unless the stage is already complete, then require its
    ``stage_outputs``; record them, its wall time, minor page faults and the
    peak RSS after it, and any fields of the dict ``fn`` returns. The
    prerequisite stage ``needs`` must have completed first, even when this
    one has. A record that cannot be written raises PipelineError and leaves
    no record file behind."""
    if needs is not None and not stage_completed(run_dir, needs, cfg):
        raise PipelineError(stage, f"prerequisite stage {needs!r} has not run; "
                                   f"run it first (work dir {run_dir})")
    if stage_completed(run_dir, stage, cfg):
        return
    # no record may outlive a run of fn() that fails half way through its outputs
    path = _meta_path(run_dir, stage)
    path.unlink(missing_ok=True)
    _keep_freed_heap()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    try:
        fields = fn() or {}
    except PipelineError:
        raise
    except Exception as err:
        raise PipelineError(stage, f"{type(err).__name__}: {err}") from err
    wall_time_s = round(time.perf_counter() - start, 3)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    outputs = stage_outputs(stage)
    for out in outputs:
        if not (run_dir / out).exists():
            raise PipelineError(stage, f"expected output {out} was not produced")
    meta = {**fields, "stage": stage, "config_hash": cfg.config_hash(),
            "code_version": CODE_VERSION, "wall_time_s": wall_time_s, "outputs": outputs,
            "minor_faults": usage.ru_minflt - faults, "peak_rss_kb": usage.ru_maxrss}
    tmp = path.with_suffix(".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(meta, sort_keys=True) + "\n")
        os.replace(tmp, path)  # a crash leaves either no record or a whole one
    except OSError as err:
        tmp.unlink(missing_ok=True)
        raise PipelineError(stage, f"cannot write its record {path}: {err}") from err


# -- individual stages ----------------------------------------------------


def stage_data(cfg: RunConfig, run_dir: Path) -> None:
    def fn():
        dataset = generate_synthetic(cfg)
        data_dir = run_dir / "data"
        data_dir.mkdir(parents=True, exist_ok=True)
        for name, split in dataset.splits.items():
            serial.save_features(data_dir / f"{name}.features", split.features)
            serial.save_labels(data_dir / f"{name}.labels", split.labels)
        summary = {"classes": cfg.num_classes,
                   **{name: int(split.labels.size) for name, split in dataset.splits.items()},
                   "prototype_accuracy": dataset.prototype_accuracy}
        (data_dir / "dataset.json").write_text(json.dumps(summary, sort_keys=True) + "\n")
        # the run's own work directory, so that loading this file finds the run
        replace(cfg, work_dir=str(run_dir.parent.resolve())).save(run_dir / "config.cfg")

    _checkpoint_stage(run_dir, cfg, "data", None, fn)


def _video_embeddings(features: np.ndarray, params: Params) -> np.ndarray:
    """Each video's mean encoder output, (N, model_dim): the teacher
    embeddings the anchor graph is built on."""
    return np.concatenate([means for _, means in forward_blocks(encode_means, features, params)])


def stage_teacher(cfg: RunConfig, run_dir: Path) -> None:
    def fn():
        train = serial.load_features(run_dir / "data" / "train.features")
        result = train_teacher(train, cfg)
        serial.save_checkpoint(run_dir / "teacher.ckpt", result.params)
        write_log(run_dir / "teacher_log.txt", [{"eval_before": result.eval_before},
                                                *result.history, {"eval_after": result.eval_after}])
        means = _video_embeddings(train, result.params)
        serial.save_features(run_dir / "embeddings.features", means[:, None, :])
        return {"optimizer_steps": optimizer_steps(len(train), cfg.teacher_epochs, cfg)}

    _checkpoint_stage(run_dir, cfg, "teacher", "data", fn)


def stage_graph(cfg: RunConfig, run_dir: Path) -> None:
    def fn():
        means = serial.load_features(run_dir / "embeddings.features")[:, 0, :]
        anchors = kmeans(means, cfg.num_anchors, seed=cfg.train_seed)
        z = build_affinity(means, anchors, p=cfg.anchor_neighbors)
        graph = build_signed_graph(z, cfg.lambda1, cfg.lambda2)
        # without edges of one sign, every pair the student draws has the other
        edges = graph.offsets[:, -1] - graph.offsets[:, 0]
        for sign, count in zip(("positive", "negative"), edges.tolist()):
            if not count:
                logger.warning("stage 'graph': the signed graph has no %s edges "
                               "(lambda1 = %r, lambda2 = %r)", sign, cfg.lambda1, cfg.lambda2)
        serial.save_graph(run_dir / "graph.bin", graph)
        serial.save_checkpoint(run_dir / "anchors.ckpt", {
            "centers": anchors.centers,
            "assignments": anchors.assignments,
        })
        precision = graph.edge_precision(serial.load_labels(run_dir / "data" / "train.labels"))
        return {"positive_edges": int(edges[0]), "negative_edges": int(edges[1]),
                "isolated_videos": int(graph.isolated.size),
                "positive_precision": precision[0], "negative_precision": precision[1]}

    _checkpoint_stage(run_dir, cfg, "graph", "teacher", fn)


def load_graph_artifacts(run_dir: Path):
    """The signed graph, and the (N_train, model_dim) array
    ``centers[assignments]``, whose row v is training video v's teacher
    anchor centre."""
    blob = serial.load_checkpoint(run_dir / "anchors.ckpt")
    return serial.load_graph(run_dir / "graph.bin"), blob["centers"][blob["assignments"]]


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

    def fn():
        train = serial.load_features(run_dir / "data" / "train.features")
        graph, anchors = load_graph_artifacts(run_dir)
        variant_cfg = replace(cfg, **dict.fromkeys(ABLATION_VARIANTS[variant], 0.0))
        result = train_student(train, variant_cfg, graph, anchors, code_bits=bits,
                               dual_stream=variant != "no_dual")
        serial.save_checkpoint(run_dir / f"student_{tag}.ckpt", result.params)
        write_log(run_dir / f"student_{tag}_log.txt", result.history)
        return {"optimizer_steps": optimizer_steps(len(train), cfg.student_epochs, cfg)}

    _checkpoint_stage(run_dir, cfg, f"student_{tag}", "graph", fn)


def encode_split(features: np.ndarray, params: Params) -> np.ndarray:
    """Hard codes for every video, from the encoder and the hash head alone;
    returns packed uint8 rows."""
    codes = [student_code(frames, params)[1]
             for _, (frames, _cache) in forward_blocks(encode_forward, features, params)]
    return pack_bits(np.concatenate(codes).astype(np.int8))


def stage_encode(cfg: RunConfig, run_dir: Path, bits: int, variant: str = "full") -> None:
    tag = _tag(bits, variant)

    def fn():
        features = {name: serial.load_features(run_dir / "data" / f"{name}.features")
                    for name in ("query", "database")}
        params = cast_params(serial.load_checkpoint(run_dir / f"student_{tag}.ckpt"),
                             features["query"].dtype)
        for name, x in features.items():
            serial.save_codes(run_dir / f"{name}_{tag}.codes", encode_split(x, params), bits)

    _checkpoint_stage(run_dir, cfg, f"encode_{tag}", f"student_{tag}", fn)


def evaluate_codes(run_dir: Path, bits: int, variant: str = "full") -> dict:
    """mAP@k for each of MAP_KS that the database holds, and the PR curve, of
    a width's query codes against its database codes, from one
    ``retrieval.evaluate_packed`` sweep over the stored packed rows (one
    distance matrix per block of queries).
    The query and database splits share no video, so no query is excluded
    from its own ranking."""
    tag = _tag(bits, variant)
    q_labels, db_labels = (serial.load_labels(run_dir / "data" / f"{name}.labels")
                           for name in ("query", "database"))
    q_packed, _ = serial.load_codes(run_dir / f"query_{tag}.codes")
    d_packed, _ = serial.load_codes(run_dir / f"database_{tag}.codes")
    idx = CodeIndex(packed=d_packed, ids=np.arange(db_labels.size), k=bits, labels=db_labels)
    maps, pr = evaluate_packed(q_packed, q_labels, idx, [k for k in MAP_KS if k <= idx.n])
    return {"bits": bits, "map": {str(k): score.value for k, score in maps.items()}, "pr": pr}


def stage_eval(cfg: RunConfig, run_dir: Path, bits: int, variant: str = "full") -> None:
    tag = _tag(bits, variant)

    def fn():
        metrics = evaluate_codes(run_dir, bits, variant)
        (run_dir / f"metrics_{tag}.json").write_text(
            json.dumps(metrics, sort_keys=True) + "\n")

    _checkpoint_stage(run_dir, cfg, f"eval_{tag}", f"encode_{tag}", fn)


# -- the stage grid, report and end-to-end -----------------------------------

# The stages a run makes once, and those it makes per (variant, width) chain,
# each in run order; ``run_stage`` runs them by these names.
SHARED_STAGES = {"data": stage_data, "teacher": stage_teacher, "graph": stage_graph}
CHAIN_STAGES = {"student": stage_student, "encode": stage_encode, "eval": stage_eval}


def model_chains(cfg: RunConfig, variants=("full",)) -> list[tuple[str, int]]:
    """The (variant, width) chains, each the CHAIN_STAGES in order on top of
    the SHARED_STAGES: every width of every variant, width by width."""
    return [(variant, bits) for bits in cfg.code_bits for variant in variants]


def run_stage(cfg: RunConfig, run_dir: Path, name: str, variants=("full",)) -> None:
    """Run stage ``name``: a SHARED_STAGES stage once, a CHAIN_STAGES stage
    for every chain of ``model_chains(cfg, variants)``, skipping completed
    stages. The one walker of the stage grid."""
    if name in SHARED_STAGES:
        SHARED_STAGES[name](cfg, run_dir)
        return
    for variant, bits in model_chains(cfg, variants):
        CHAIN_STAGES[name](cfg, run_dir, bits, variant)


def build_report(cfg: RunConfig, run_dir: Path) -> PipelineReport:
    """Assemble report.txt from the run directory's stage records and
    outputs. It covers every chain of ``model_chains(cfg, ABLATION_VARIANTS)``
    whose eval record ``stage_completed`` accepts, so no call drops rows
    that another call's stages left on disk. In a stable order: the dataset,
    the wall time of each shared stage and then of each covered chain's
    stages, the graph record, then each covered chain's map and PR rows. A
    full model's rows read ``map bits=K k=...`` and ``pr bits=K point=...``;
    another variant V's carry ``variant=V`` after the width."""
    chains = [(variant, bits) for variant, bits in model_chains(cfg, ABLATION_VARIANTS)
              if stage_completed(run_dir, f"eval_{_tag(bits, variant)}", cfg)]
    lines = ["dkph run report", f"config_hash = {cfg.config_hash()}"]
    summary = json.loads((run_dir / "data" / "dataset.json").read_text())
    for key in ("classes", *SPLITS):
        lines.append(f"dataset {key} = {summary[key]}")
    lines.append(f"dataset prototype_accuracy = {summary['prototype_accuracy']:.10g}")
    stages = [*SHARED_STAGES] + [f"{name}_{_tag(bits, variant)}"
                                 for variant, bits in chains for name in CHAIN_STAGES]
    records = {stage: json.loads(_meta_path(run_dir, stage).read_text()) for stage in stages}
    for stage, record in records.items():
        lines.append(f"stage {stage} wall_time_s = {record['wall_time_s']:.3f}")
        if "optimizer_steps" in record:
            lines.append(f"stage {stage} optimizer_steps = {record['optimizer_steps']}")
    for key in ("positive_edges", "negative_edges", "isolated_videos",
                "positive_precision", "negative_precision"):
        value = records["graph"][key]
        lines.append(f"graph {key} = {'none' if value is None else format(value, '.10g')}")
    for variant, bits in chains:
        m = json.loads((run_dir / f"metrics_{_tag(bits, variant)}.json").read_text())
        chain = f"bits={bits}" if variant == "full" else f"bits={bits} variant={variant}"
        for k in sorted(int(x) for x in m["map"]):
            lines.append(f"map {chain} k={k} = {m['map'][str(k)]:.10g}")
        for i, (recall, precision) in enumerate(m["pr"]):
            lines.append(f"pr {chain} point={i} recall={recall:.10g} "
                         f"precision={precision:.10g}")
    text = "\n".join(lines) + "\n"
    (run_dir / "report.txt").write_text(text)
    return PipelineReport(run_dir=run_dir, text=text)


def run_pipeline(cfg: RunConfig, work_dir=None, variants=("full",)) -> PipelineReport:
    """Run every stage for the chains of ``variants``, stage by stage in the
    order of SHARED_STAGES and CHAIN_STAGES (the CLI's), skipping completed
    ones, and write report.txt (``build_report``): those chains' rows, and
    those of any other chain whose stages an earlier call completed."""
    run_dir = run_layout(cfg, work_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    for name in (*SHARED_STAGES, *CHAIN_STAGES):
        run_stage(cfg, run_dir, name, variants)
    return build_report(cfg, run_dir)


def ablation_suite(cfg: RunConfig, work_dir=None) -> PipelineReport:
    """Run the pipeline for every ablation variant at every code width, so
    that report.txt holds every chain's rows, and write ablation.txt: the
    reconstruction error of each width's trained full model on the database
    split with each stream removed (``student.probe_reconstruction``).
    Returns the pipeline's report."""
    report = run_pipeline(cfg, work_dir, ABLATION_VARIANTS)
    run_dir = report.run_dir
    lines = ["dkph ablation report", f"config_hash = {cfg.config_hash()}"]
    db_features = serial.load_features(run_dir / "data" / "database.features")
    for bits in cfg.code_bits:
        full = cast_params(serial.load_checkpoint(run_dir / f"student_{bits}.ckpt"),
                           db_features.dtype)
        error = probe_reconstruction(db_features, full)
        for mode in PROBE_MODES:
            lines.append(f"recon_error bits={bits} mode={mode} = {error[mode]:.10g}")
        lines.append(f"recon_error bits={bits} drop_latent_over_drop_code = "
                     f"{error['drop_latent'] / error['drop_code']:.10g}")
        lines.append(f"recon_error bits={bits} mean_latent_increase = "
                     f"{(error['mean_latent'] - error['intact']) / error['intact']:.10g}")
    (run_dir / "ablation.txt").write_text("\n".join(lines) + "\n")
    return report
