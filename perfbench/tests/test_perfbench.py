"""Tests of the benchmark itself, at smoke size.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
import workloads  # noqa: E402

DELAY = 0.5


def _slow(fn):
    def slowed(*args, **kwargs):
        time.sleep(DELAY)
        return fn(*args, **kwargs)
    return slowed


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_injected_delay_shows_in_graph_layer_and_not_in_retrieval(tmp_path):
    wide = workloads.setup("wide", 3, tmp_path / "wide", smoke=True)
    retr = workloads.setup("retrieval", 3, tmp_path / "retrieval", smoke=True)
    ops = workloads.Ops()
    base_wide = workloads.repetition(wide, 0, ops, check=True)
    base_retr = workloads.repetition(retr, 0, ops, check=True)

    undo = spans.patch("graph", "build_signed_graph", _slow)
    try:
        slow_wide = workloads.repetition(wide, 1, ops, check=False)
        slow_retr = workloads.repetition(retr, 1, ops, check=False)
        tracer = spans.Tracer()
        tracer.install()
        try:
            workloads.repetition(wide, 2, ops, check=False, traced=True)
        finally:
            tracer.uninstall()
    finally:
        undo()

    assert ops.failed == 0, ops.errors
    base_wide, slow_wide, base_retr, slow_retr = (
        workloads.end_to_end([r], ops) for r in (base_wide, slow_wide, base_retr, slow_retr))
    # graph_s is in reference seconds: a sleep counts as DELAY / slowdown
    assert slow_wide["graph_s"] - base_wide["graph_s"] >= 0.8 * DELAY / max(ops.slowdowns)
    layers = tracer.summary()
    assert layers["graph.build_signed_graph.self_s"] >= DELAY
    assert layers["graph.adjacency_row.self_s"] < DELAY
    # the retrieval layer's own metrics do not see the delay
    assert abs(slow_retr["eval_s"] - base_retr["eval_s"]) < DELAY / 2
    assert slow_retr["search_qps"] > 0.5 * base_retr["search_qps"]


def test_tracer_rebinds_every_import_and_reports_absent_targets(monkeypatch):
    from dkph import graph, optim, pipeline, student

    original = student.train_student
    monkeypatch.delattr(graph, "adjacency_row")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pipeline.train_student is student.train_student is not original
        assert optim.Adam.step.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert pipeline.train_student is original
    assert tracer.absent == ["graph.adjacency_row"]
    summary = tracer.summary()
    assert summary["graph.adjacency_row.calls"] == 0
    assert summary["graph.adjacency_row.self_s"] == 0.0


def test_oracle_check_catches_a_wrong_map(tmp_path):
    retr = workloads.setup("retrieval", 5, tmp_path / "retrieval", smoke=True)
    ops = workloads.Ops()
    maps = workloads.evaluate(retr.code_sets, ops)
    workloads.check_outputs(retr.code_sets, maps, ops)
    assert ops.failed == 0, ops.errors
    maps[16]["20"] += 1e-6
    workloads.check_outputs(retr.code_sets, maps, ops)
    assert ops.failed == 1 and ops.errors[0].startswith("map@20[16]")


def test_oracle_check_catches_mishandled_non_member_queries(tmp_path, monkeypatch):
    from dkph import retrieval

    retr = workloads.setup("retrieval", 5, tmp_path / "retrieval", smoke=True)
    map_at_k, query_topk = retrieval.map_at_k, retrieval.query_topk

    # Treats a query id as a database position: right for members, whose ids
    # are positions, and wrong for fresh queries, whose ids are not in the index.
    def wrong_map(q_bits, q_labels, idx, k, q_ids):
        return map_at_k(q_bits, q_labels, idx, k, idx.ids[np.asarray(q_ids) % idx.n])

    def wrong_topk(idx, code, k, qid):
        return query_topk(idx, code, k, int(idx.ids[qid % idx.n]))

    monkeypatch.setattr(retrieval, "map_at_k", wrong_map)
    monkeypatch.setattr(retrieval, "query_topk", wrong_topk)
    ops = workloads.Ops()
    workloads.check_outputs(retr.code_sets, workloads.evaluate(retr.code_sets, ops), ops)
    assert any(e.startswith("map@") for e in ops.errors), ops.errors
    assert any(e.startswith("query_topk[") for e in ops.errors), ops.errors


@pytest.mark.parametrize("trace", [0, 1])
def test_every_benchmark_metric_is_printed_with_its_unit(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    out = _run("--workload", "wide", "--seed", "2", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "train", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
