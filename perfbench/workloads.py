"""The benchmark's workloads: inputs built from a seed, one timed repetition.

Every workload runs the same repetition, so every run reports every
end-to-end metric:

1. a cold pipeline in a fresh work directory, in the order the `dkph` CLI
   subcommands call the stages (synth-data, train-teacher, build-graph,
   train-student, encode, eval; then the report);
2. evaluation passes: mAP@k for k in {5, 20, 60, 100} plus the PR curve,
   for every code width;
3. a closed loop with one client sending `query_topk(k=100)` requests.

What differs is the size of each part, chosen to stress one layer each:

train      paper-default corpus and model (10 classes x 40 videos, 25 frames
           x 64 features, model_dim 256). Encoder forward/backward dominate.
wide       300 training videos with a small model. The anchor signed graph
           dominates, and mAP@20 at 16 bits is not saturated.
retrieval  3000 labelled synthetic codes per width with 15 % bit-flip noise,
           and a tiny pipeline. Hamming ranking, mAP and PR dominate; the
           tiny pipeline's stages expose fixed per-stage costs.

Timing on a shared machine. Its CPU switches between a fast state and a
slow one, up to twice as slow, for stretches of a second to a minute, so
raw wall times of one input swing by up to 2x between runs. Every timed
sample is therefore bracketed by a speed probe (fixed Python and NumPy work
that does not touch dkph) and reported in reference seconds: raw seconds x
REFERENCE_PROBE_S / the mean of the two probes, i.e. the time the sample
takes at the reference speed. Each metric is the median of many such
samples: each stage subcommand is also run cold in copies of the work
directory taken just before it, until its samples cover STAGE_SECONDS;
evaluation passes fill EVAL_SECONDS; search is timed per chunk of
SEARCH_CHUNK requests.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dkph import codes, pipeline, retrieval, serial
from dkph.config import RunConfig

import oracle

WIDTHS = (16, 32, 64)
MAP_KS = (5, 20, 60, 100)
STAGE_SECONDS = 2.0          # cold samples of a stage subcommand cover at least this
STAGE_SAMPLES = 9            # ... or stop at this many
EVAL_SECONDS = 0.5           # evaluation passes per repetition cover at least this
SEARCH_K = 100
SEARCH_QUERIES = 1000        # per repetition at least, so that >= 10 lie beyond p99
SEARCH_SECONDS = 0.5         # per repetition at least
SEARCH_CHUNK = 200           # requests per timed search sample
TOPK_CHECKS = 16             # query_topk results checked per width
RERUNS = 10                  # warm run_pipeline calls timed for pipeline.rerun_ms

# Probe seconds at full speed on the reference machine (Intel Xeon, 2 vCPUs;
# the machine of the baseline log in README.md).
REFERENCE_PROBE_S = 0.9e-3

# retrieval code sets: classes, database size, queries, bit-flip probability
CODE_CLASSES, CODE_DB, CODE_QUERIES, CODE_NOISE = 50, 3000, 400, 0.15


def run_config(name: str, seed: int, smoke: bool = False) -> RunConfig:
    """The pipeline configuration of a workload; `smoke` shrinks it for tests.

    The seed drives training (initialization, masks, pair sampling); the
    corpus keeps the default data seed, as a benchmark dataset would, so that
    quality and graph size do not swing with the corpus drawn. The tiny
    configuration (retrieval, smoke) keeps 120 database videos so that
    query_topk(k=100) and mAP@100 are defined on it. On `retrieval` the tiny
    pipeline is a fixed fixture (training seed 0): there `--seed` draws the
    code sets, and the fixture's losses and graph do not swing with it.
    """
    common = dict(code_bits=WIDTHS, train_seed=0 if name == "retrieval" else seed)
    if smoke or name == "retrieval":
        # ten one-step epochs: after a single step the tiny model's losses
        # still swing with the initialization (14 % spread over seeds)
        return RunConfig(num_classes=6, videos_per_class=50, frames=4, model_dim=8,
                         teacher_bits=16, num_anchors=6, anchor_neighbors=3,
                         teacher_epochs=10, student_epochs=10, **common)
    common.update(teacher_epochs=1, student_epochs=1)
    if name == "train":
        return RunConfig(**common)
    if name == "wide":
        return RunConfig(num_classes=15, videos_per_class=40, frames=8, model_dim=64,
                         **common)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class CodeSet:
    """Queries and an index of one code width (queries carry ids and labels)."""

    index: retrieval.CodeIndex
    query_bits: np.ndarray   # (nq, K) int8 over {-1, +1}
    query_labels: np.ndarray
    query_ids: np.ndarray


def synthetic_code_sets(seed: int, smoke: bool = False) -> dict[int, CodeSet]:
    """Fixed class prototypes plus bit-flip noise drawn from `seed`. Half the
    queries are database members (same id, code and label), so
    self-exclusion is exercised."""
    n_db, n_q = (400, 60) if smoke else (CODE_DB, CODE_QUERIES)
    rng = np.random.default_rng([seed, 7])
    sets = {}
    for k in WIDTHS:
        protos = np.random.default_rng(k).integers(0, 2, size=(CODE_CLASSES, k))
        db_labels = np.arange(n_db) % CODE_CLASSES
        db = protos[db_labels] ^ (rng.random((n_db, k)) < CODE_NOISE)
        db_bits = (2 * db - 1).astype(np.int8)
        members = rng.choice(n_db, size=n_q // 2, replace=False)
        fresh_labels = rng.integers(0, CODE_CLASSES, size=n_q - members.size)
        fresh = protos[fresh_labels] ^ (rng.random((fresh_labels.size, k)) < CODE_NOISE)
        q_bits = np.concatenate([db_bits[members], (2 * fresh - 1).astype(np.int8)])
        q_labels = np.concatenate([db_labels[members], fresh_labels])
        q_ids = np.concatenate([members, n_db + np.arange(fresh_labels.size)])
        index = retrieval.CodeIndex.from_bits(db_bits, ids=np.arange(n_db), labels=db_labels)
        sets[k] = CodeSet(index=index, query_bits=q_bits, query_labels=q_labels,
                          query_ids=q_ids)
    return sets


@dataclass
class Workload:
    name: str
    cfg: RunConfig
    work_root: Path
    code_sets: dict = field(default_factory=dict)   # retrieval only


def setup(name: str, seed: int, work_root, smoke: bool = False) -> Workload:
    """Build the workload's inputs: its config and an empty work root, and on
    `retrieval` the code sets and their CodeIndex. Timed as setup_s."""
    cfg = run_config(name, seed, smoke)
    work_root = Path(work_root)
    shutil.rmtree(work_root, ignore_errors=True)
    work_root.mkdir(parents=True)
    sets = synthetic_code_sets(seed, smoke) if name == "retrieval" else {}
    return Workload(name=name, cfg=cfg, work_root=work_root, code_sets=sets)


_PROBE_DICT = {i: float(i) for i in range(8192)}
_PROBE_MATRIX = np.random.default_rng(0).normal(size=(32, 32)) / 8


def speed_probe() -> float:
    """Seconds of a fixed bit of Python and small-NumPy work (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0.0
        for i in range(8192):
            total += _PROBE_DICT[i]
        y = _PROBE_MATRIX
        for _ in range(100):
            y = np.tanh(y @ _PROBE_MATRIX)
        best = min(best, time.perf_counter() - start)
    return best


class Ops:
    """Attempted and failed operations (stages, searches and correctness
    checks), and the speed probes of the timed samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.slowdowns: list[float] = []   # mean probe / REFERENCE_PROBE_S, per sample

    def timed(self, fn, *args) -> float:
        """Reference seconds of fn(*args), with speed probes right before and after."""
        before = speed_probe()
        start = time.perf_counter()
        fn(*args)
        return self.reference(time.perf_counter() - start, before)

    def reference(self, seconds: float, probe_before: float) -> float:
        """Raw `seconds` over the machine's slowdown: the mean of `probe_before`
        and a probe taken now, over REFERENCE_PROBE_S."""
        slowdown = (probe_before + speed_probe()) / 2 / REFERENCE_PROBE_S
        self.slowdowns.append(slowdown)
        return seconds / slowdown

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def call(self, what: str, fn, *args):
        """Run one operation; an exception counts as a failure and is re-raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as err:
            self.failed += 1
            self.errors.append(f"{what}: {type(err).__name__}: {err}")
            raise


def _timed(ops: Ops, what: str, fn, *args) -> float:
    return ops.timed(ops.call, what, fn, *args)


def _sampled(run, run_dir: Path, sample: bool) -> list[float]:
    """Reference seconds of `run(dir)`: first in run_dir, then (with `sample`)
    in fresh copies of run_dir as it was before, until STAGE_SECONDS are covered."""
    times = []
    snapshot = run_dir.with_name(run_dir.name + ".before")
    if sample:
        shutil.copytree(run_dir, snapshot)
    try:
        times.append(run(run_dir))
        while sample and sum(times) < STAGE_SECONDS and len(times) < STAGE_SAMPLES:
            copy = run_dir.with_name(f"{run_dir.name}.{len(times)}")
            shutil.copytree(snapshot, copy)
            try:
                times.append(run(copy))
            finally:
                shutil.rmtree(copy)
    finally:
        shutil.rmtree(snapshot, ignore_errors=True)
    return times


def _cold_pipeline(cfg: RunConfig, run_dir: Path, ops: Ops, sample: bool) -> tuple[dict, dict]:
    """Cold time samples of each stage subcommand and of the pipeline itself
    (one pass, data through report), and the pipeline's two final losses."""
    subcommands = (
        ("teacher_s", lambda d: _timed(ops, "teacher", pipeline.stage_teacher, cfg, d)),
        ("graph_s", lambda d: _timed(ops, "graph", pipeline.stage_graph, cfg, d)),
        ("student_s", lambda d: sum(_timed(ops, f"student[{b}]", pipeline.stage_student,
                                           cfg, d, b) for b in cfg.code_bits)),
        ("encode_s", lambda d: sum(_timed(ops, f"encode[{b}]", pipeline.stage_encode,
                                          cfg, d, b) for b in cfg.code_bits)),
    )
    t = {}
    total = _timed(ops, "data", pipeline.stage_data, cfg, run_dir)
    for metric, run in subcommands:
        t[metric] = _sampled(run, run_dir, sample)
        total += t[metric][0]
    for bits in cfg.code_bits:
        total += _timed(ops, f"eval[{bits}]", pipeline.stage_eval, cfg, run_dir, bits)
    total += _timed(ops, "report", pipeline.build_report, cfg, run_dir)
    t["pipeline_s"] = [total]

    log = (run_dir / "teacher_log.txt").read_text().split()
    last = (run_dir / f"student_{cfg.code_bits[0]}_log.txt").read_text().split()
    quality = {"teacher_loss": next(x for x in log if x.startswith("eval_after=")),
               "student_loss": next(x for x in last[::-1] if x.startswith("total="))}
    return t, {name: float(x.split("=")[1]) for name, x in quality.items()}


def _report_maps(run_dir: Path) -> dict:
    return {k: json.loads((run_dir / f"metrics_{k}.json").read_text())["map"] for k in WIDTHS}


def _pipeline_code_sets(run_dir: Path) -> dict[int, CodeSet]:
    """The pipeline's saved codes and labels, with the package's id numbering
    (train, then query, then database)."""
    labels = {s: serial.load_labels(run_dir / "data" / f"{s}.labels")
              for s in ("train", "query", "database")}
    n_train, n_q = labels["train"].size, labels["query"].size
    q_ids = n_train + np.arange(n_q)
    db_ids = n_train + n_q + np.arange(labels["database"].size)
    sets = {}
    for k in WIDTHS:
        q_packed, _ = serial.load_codes(run_dir / f"query_{k}.codes")
        d_packed, _ = serial.load_codes(run_dir / f"database_{k}.codes")
        index = retrieval.CodeIndex(packed=d_packed, ids=db_ids, k=k, labels=labels["database"])
        sets[k] = CodeSet(index=index, query_bits=codes.unpack_bits(q_packed, k),
                          query_labels=labels["query"], query_ids=q_ids)
    return sets


def evaluate(sets: dict[int, CodeSet], ops: Ops) -> dict:
    """What the eval stage computes (mAP@k and PR per width), on code sets."""
    maps = {}
    for k, s in sets.items():
        maps[k] = {}
        for at in MAP_KS:
            if at <= s.index.n:
                score = ops.call(f"map@{at}[{k}]", retrieval.map_at_k, s.query_bits,
                                 s.query_labels, s.index, at, s.query_ids)
                maps[k][str(at)] = score.value
        ops.call(f"pr[{k}]", retrieval.pr_curve, s.query_bits, s.query_labels,
                 s.index, s.query_ids)
    return maps


def _eval_passes(w: Workload, run_dir: Path, ops: Ops, seconds: float) -> tuple[list, list]:
    """Evaluation passes over every width for at least `seconds` (one at least).

    On `train` and `wide` a pass is `evaluate_codes` per width, the work of
    the eval stage; on `retrieval` it is `map_at_k` and `pr_curve` directly.
    """
    def one_pass():
        if w.code_sets:
            results.append(evaluate(w.code_sets, ops))
        else:
            results.append({k: ops.call(f"evaluate_codes[{k}]", pipeline.evaluate_codes,
                                        run_dir, k)["map"] for k in WIDTHS})

    times, results = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(ops.timed(one_pass))
    return times, results


def _search(sets: dict[int, CodeSet], ops: Ops, seconds: float) -> tuple[list, list]:
    """Closed loop, one client: each request waits for the previous reply.

    Runs for at least `seconds` and SEARCH_QUERIES requests; returns the
    request rate (per reference second) of every chunk of SEARCH_CHUNK
    requests, and each request's raw latency.
    """
    requests = [(s.index, codes.BinaryCode(b), int(i))
                for s in sets.values() for b, i in zip(s.query_bits, s.query_ids)]
    rates, latencies = [], []

    def chunk():
        for _ in range(SEARCH_CHUNK):
            index, code, qid = requests[len(latencies) % len(requests)]
            t0 = time.perf_counter()
            ops.call("query_topk", retrieval.query_topk, index, code, SEARCH_K, qid)
            latencies.append(time.perf_counter() - t0)

    start = time.perf_counter()
    while len(latencies) < SEARCH_QUERIES or time.perf_counter() - start < seconds:
        rates.append(SEARCH_CHUNK / ops.timed(chunk))
    return rates, latencies


def check_outputs(sets: dict[int, CodeSet], maps: dict, ops: Ops) -> None:
    """Oracle checks, outside the timed region.

    mAP@k of every width is recomputed from unpacked bits for every query and
    compared to `maps` (the report's values). TOPK_CHECKS queries spread
    evenly over each width's queries (on `retrieval` both database members
    and fresh codes) also check query_topk's ids and distances.
    """
    for k, s in sets.items():
        db_bits = oracle.unpack(s.index.packed, k)
        q_bits = (s.query_bits > 0).astype(np.int64)
        want_ks = [str(at) for at in MAP_KS if at <= s.index.n]
        ops.check(sorted(maps[k], key=int) == want_ks, f"map ks[{k}]: {sorted(maps[k])}")
        expect = oracle.map_at_ks(q_bits, s.query_labels, s.query_ids, db_bits,
                                  s.index.labels, s.index.ids, [int(a) for a in want_ks])
        for at in want_ks:
            got, want = maps[k].get(at), expect[int(at)]
            ops.check(got is not None and want is not None
                      and abs(got - want) <= oracle.MAP_TOLERANCE,
                      f"map@{at}[{k}]: dkph {got!r} oracle {want!r}")
        for qi in np.unique(np.linspace(0, s.query_ids.size - 1, TOPK_CHECKS).astype(int)):
            qid = int(s.query_ids[qi])
            got = retrieval.query_topk(s.index, codes.BinaryCode(s.query_bits[qi]),
                                       SEARCH_K, qid)
            ids, dists = oracle.topk(q_bits[qi], db_bits, s.index.ids, SEARCH_K, qid)
            ops.check(got.ids.tolist() == ids and got.distances.tolist() == dists,
                      f"query_topk[{k}] query {qid}")


@dataclass
class Repetition:
    stages: dict                                     # reference seconds per sample, per metric
    quality: dict                                    # teacher_loss, student_loss
    eval_s: list = field(default_factory=list)       # reference seconds per evaluation pass
    maps: list = field(default_factory=list)         # mAP@k per width, per pass
    search_rates: list = field(default_factory=list)  # requests per reference second, per chunk
    latencies: list = field(default_factory=list)    # raw seconds per search request
    rerun_ms: float | None = None


def repetition(w: Workload, index: int, ops: Ops, check: bool, rerun: bool = False,
               traced: bool = False) -> Repetition:
    """A cold pipeline in a fresh work dir (removed afterwards), then the
    evaluation and search of its codes, or of the retrieval code sets.

    With `check` the outputs go through the oracle, and with `rerun` warm
    reruns of the completed pipeline are timed. A `traced` repetition runs
    each stage once, makes one evaluation pass and SEARCH_QUERIES requests,
    so that its call counts repeat exactly.
    """
    work_dir = w.work_root / f"rep{index}"
    run_dir = pipeline.run_layout(w.cfg, work_dir)
    run_dir.mkdir(parents=True)
    try:
        rep = Repetition(*_cold_pipeline(w.cfg, run_dir, ops, sample=not traced))
        rep.eval_s, rep.maps = _eval_passes(w, run_dir, ops, 0 if traced else EVAL_SECONDS)
        sets = w.code_sets or _pipeline_code_sets(run_dir)
        rep.search_rates, rep.latencies = _search(sets, ops, 0 if traced else SEARCH_SECONDS)
        if not w.code_sets:
            ops.check(rep.maps[0] == _report_maps(run_dir), "evaluate_codes differs from the report")
        if check:
            check_outputs(_pipeline_code_sets(run_dir), _report_maps(run_dir), ops)
            if w.code_sets:
                check_outputs(w.code_sets, rep.maps[0], ops)
        if rerun:
            samples = []
            for _ in range(RERUNS):
                t0 = time.perf_counter()
                pipeline.run_pipeline(w.cfg, work_dir)
                samples.append((time.perf_counter() - t0) * 1e3)
            rep.rerun_ms = statistics.median(samples)
        return rep
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def end_to_end(reps: list[Repetition], ops: Ops) -> dict:
    """Medians over every sample of the run; the quality numbers must repeat
    exactly."""
    out = {name: statistics.median(t for r in reps for t in r.stages[name])
           for name in reps[0].stages}
    out.update(reps[0].quality)
    out["eval_s"] = statistics.median(t for r in reps for t in r.eval_s)
    out["search_qps"] = statistics.median(x for r in reps for x in r.search_rates)
    for k in WIDTHS:
        out[f"map20.b{k}"] = reps[0].maps[0][k]["20"]
    for name in ("teacher_loss", "student_loss"):
        ops.check(len({r.quality[name] for r in reps}) == 1, f"{name} differs between repetitions")
    ops.check(all(m == reps[0].maps[0] for r in reps for m in r.maps),
              "mAP differs between evaluation passes")
    return out


def check_gradients(ops: Ops, tolerance: float = 1e-4) -> None:
    """The package's finite-difference gates, once per invocation."""
    from dkph import gradcheck

    for name in ("teacher_gradient_check", "student_gradient_check"):
        report = ops.call(name, getattr(gradcheck, name))
        ops.check(report.max_rel_error < tolerance,
                  f"{name}: max_rel_error {report.max_rel_error:.3e} >= {tolerance:g}")
