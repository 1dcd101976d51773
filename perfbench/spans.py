"""In-memory span tracer that wraps `dkph` public functions from outside.

A wrapper records one span (name, start, end, parent) per call. Spans are
kept in a list and written out once, when the benchmark ends. A span's self
time is its duration minus the time its child spans cover; calls are
strictly nested because the benchmark drives `dkph` from one thread.

`patch` replaces every `dkph.*` module attribute bound to the original
function, because `teacher`, `student` and `pipeline` import functions by
name. A target missing at some commit is reported as absent, so the same
benchmark code runs on a parent and a child that renamed or removed it.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import os
import sys
import time
from collections import defaultdict

# (module, attribute) of every wrapped public function, grouped by layer.
# "Adam.step" is wrapped on the class, so every optimizer instance is traced.
TARGETS = {
    "encoder": ("encode_forward", "encode_backward"),
    "teacher": ("teacher_forward", "teacher_backward", "masked_eval_loss", "train_teacher"),
    "student": ("student_forward", "batch_gradients", "student_step", "train_student"),
    "optim": ("Adam.step",),
    "graph": ("kmeans", "default_bandwidth", "build_affinity", "build_signed_graph",
              "adjacency_row", "sample_pairs"),
    "codes": ("pack_bits", "unpack_bits"),
    "retrieval": ("map_at_k", "pr_curve", "packed_distances", "query_topk"),
    "serial": ("save_checkpoint", "load_checkpoint", "save_features", "load_features",
               "save_codes", "load_codes", "save_graph", "load_graph"),
    "synth": ("generate_synthetic", "load_dataset_splits"),
    "pipeline": ("stage_completed", "encode_split", "evaluate_codes", "build_report"),
}

# Counters and gauges recorded at the same boundaries, reported next to the spans.
COUNTERS = ("student.pair_fallbacks", "graph.pos_edges", "graph.neg_edges",
            "graph.isolated_share", "retrieval.skipped_queries", "serial.bytes_written")


def span_names() -> list[str]:
    return [f"{layer}.{attr}" for layer, attrs in TARGETS.items() for attr in attrs]


def _dkph_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dkph" or name.startswith("dkph."))]


def patch(layer: str, attr: str, make_wrapper):
    """Replace dkph.<layer>.<attr> everywhere it is bound by make_wrapper(original).

    Returns an undo callable, or None when the target does not exist.
    """
    module = importlib.import_module(f"dkph.{layer}")
    if "." in attr:
        cls_name, meth = attr.split(".", 1)
        cls = getattr(module, cls_name, None)
        original = cls.__dict__.get(meth) if cls is not None else None
        if original is None:
            return None
        setattr(cls, meth, make_wrapper(original))
        return lambda: setattr(cls, meth, original)
    original = getattr(module, attr, None)
    if original is None:
        return None
    wrapper = make_wrapper(original)
    bound = [(m, name) for m in _dkph_modules()
             for name, value in list(vars(m).items()) if value is original]
    for m, name in bound:
        setattr(m, name, wrapper)

    def undo():
        for m, name in bound:
            setattr(m, name, original)
    return undo


class Tracer:
    """Spans and counters for one traced repetition; install/uninstall around it."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []
        self._log_handler = _FallbackHandler(self.counters)

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def _after_hooks(self):
        c = self.counters

        def graph_stats(g, _args):
            c["graph.pos_edges"] += sum(int(p.size) for p in g.positives)
            c["graph.neg_edges"] += sum(int(n.size) for n in g.negatives)
            c["graph.isolated_share"] = len(g.isolated) / max(g.n, 1)

        def skipped(score, _args):
            c["retrieval.skipped_queries"] += score.skipped

        def written(_result, args):
            c["serial.bytes_written"] += os.path.getsize(args[0])

        hooks = {"graph.build_signed_graph": graph_stats, "retrieval.map_at_k": skipped}
        for attr in TARGETS["serial"]:
            if attr.startswith("save_"):
                hooks[f"serial.{attr}"] = written
        return hooks

    def install(self) -> None:
        hooks = self._after_hooks()
        for layer, attrs in TARGETS.items():
            for attr in attrs:
                name = f"{layer}.{attr}"
                undo = patch(layer, attr, lambda fn, name=name: self._wrap(name, fn, hooks.get(name)))
                if undo is None:
                    self.absent.append(name)
                else:
                    self._undo.append(undo)
        logging.getLogger("dkph.graph").addHandler(self._log_handler)

    def uninstall(self) -> None:
        logging.getLogger("dkph.graph").removeHandler(self._log_handler)
        while self._undo:
            self._undo.pop()()

    def summary(self) -> dict[str, float]:
        """calls and self_s for every target (0 when absent or never called)."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += (end - start) - child[idx]
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = total[name]
        for name in COUNTERS:
            out[name] = self.counters[name]
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")


class _FallbackHandler(logging.Handler):
    """Counts pair-sampler fallbacks from the warning dkph.graph logs."""

    def __init__(self, counters):
        super().__init__()
        self.counters = counters

    def emit(self, record):
        if "fell back" in str(record.msg) and record.args:
            self.counters["student.pair_fallbacks"] += record.args[0]
