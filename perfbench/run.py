"""Benchmark of the `dkph` package: one workload per invocation.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it imports `dkph` from ./src).
With --trace 0 it prints every end-to-end metric of BENCHMARK.json; with
--trace 1 it alternates untraced and traced repetitions and prints every
per-layer metric. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUPS = 9   # cold set-ups per run, each in a fresh interpreter; setup_s is their median

# One busy thread: BLAS must not add threads of its own (set before numpy loads).
THREAD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import dkph
import workloads
workloads.setup(sys.argv[3], int(sys.argv[4]), sys.argv[5], smoke=sys.argv[6] == "1")
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def metric_specs(trace: int) -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def pin_to_one_cpu() -> None:
    """Run this process and the set-up interpreters it starts on one CPU.

    The CPUs of a shared machine can run at different speeds at the same
    time; on one CPU, the speed probes measure the CPU the timed work runs on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def timed_setups(args, ops, workloads) -> float:
    """Median reference seconds of SETUPS cold set-ups, each bracketed by speed probes."""
    samples = []
    for i in range(SETUPS):
        work_root = SCRATCH / "work" / f"setup-{os.getpid()}-{i}"
        before = workloads.speed_probe()
        try:
            out = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), args.workload,
                 str(args.seed), str(work_root), "1" if args.smoke else "0"],
                capture_output=True, text=True, timeout=120, check=True)
        finally:
            shutil.rmtree(work_root, ignore_errors=True)
        samples.append(ops.reference(float(out.stdout.split()[-1]), before))
    return statistics.median(samples)


def fingerprint() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q / 100 * len(ordered))) - 1))]


def measure(args, w, ops, workloads, spans) -> tuple[dict, dict]:
    """Repetitions for about --seconds, two at least (one of each kind with --trace 1).

    Another repetition starts unless, at the mean repetition time so far, it
    would end more than half a repetition after --seconds; so the measured
    time is --seconds give or take half a repetition. With --trace 1,
    untraced and traced repetitions alternate; the spans of the last traced
    one are written out. Returns (metrics, extra record).
    """
    plain, traced, layer_rows = [], [], []
    start = time.perf_counter()
    while True:
        use_trace = bool(args.trace) and len(plain) > len(traced)
        index = len(plain) + len(traced)
        if use_trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced.append(workloads.repetition(w, index, ops, check=False, traced=True))
            finally:
                tracer.uninstall()
            layer_rows.append(tracer.summary())
        else:
            plain.append(workloads.repetition(w, index, ops, check=index == 0,
                                              rerun=bool(args.trace)))
        elapsed, reps = time.perf_counter() - start, len(plain) + len(traced)
        if reps >= 2 and elapsed + elapsed / reps / 2 >= args.seconds:
            break

    metrics = workloads.end_to_end(plain + traced, ops)
    if not args.trace:
        return metrics, {"repetitions": len(plain)}

    def pipeline_s(reps):
        return statistics.median(t for r in reps for t in r.stages["pipeline_s"])

    metrics = {name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]}
    latencies_ms = [lat * 1e3 for r in traced for lat in r.latencies]
    metrics["retrieval.query_topk.p50_ms"] = statistics.median(latencies_ms)
    metrics["retrieval.query_topk.p99_ms"] = percentile(latencies_ms, 99)
    metrics["pipeline.rerun_ms"] = statistics.median(r.rerun_ms for r in plain)
    metrics["trace.overhead_s"] = pipeline_s(traced) - pipeline_s(plain)
    SCRATCH.joinpath("traces").mkdir(parents=True, exist_ok=True)
    tracer.write(SCRATCH / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    return metrics, {"repetitions": len(plain) + len(traced), "traced_repetitions": len(traced),
                     "search_requests_traced": len(latencies_ms), "absent": tracer.absent}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dkph" / "__init__.py").is_file():
        print(f"error: no dkph package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)   # inherited by the set-up interpreters too
    pin_to_one_cpu()
    sys.path[:0] = [str(SRC), str(BENCH)]
    specs = metric_specs(args.trace)

    import spans
    import workloads

    ops = workloads.Ops()
    setup_s = timed_setups(args, ops, workloads)
    work_root = SCRATCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    w = workloads.setup(args.workload, args.seed, work_root, smoke=args.smoke)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "config_hash": w.cfg.config_hash(),
              "fingerprint": fingerprint()}
    metrics = {}
    try:
        workloads.check_gradients(ops)
        metrics, extra = measure(args, w, ops, workloads, spans)
        record.update(extra)
    except Exception as err:   # a failed operation: report it, do not print a result
        ops.errors.append(f"{type(err).__name__}: {err}")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    metrics["setup_s"] = setup_s

    missing = sorted(set(specs) - set(metrics))
    record["slowdown_median"] = statistics.median(ops.slowdowns) if ops.slowdowns else None
    record.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors,
                  fail_ratio=ops.failed / max(ops.attempted, 1))
    record["metrics"] = {name: {"value": metrics[name], "unit": spec["unit"]}
                         for name, spec in specs.items() if name in metrics}
    results = SCRATCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {record['fail_ratio']:.6g} ({ops.failed}/{ops.attempted})")
    print("record: " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    for error in ops.errors:
        print(f"error: {error}", file=sys.stderr)
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    correct = ops.failed == 0
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
