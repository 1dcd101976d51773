"""Command-line front end over the pipeline stages.

Each subcommand runs against the work directory derived from the config
hash. ``STAGE_COMMANDS`` maps each stage subcommand to the pipeline stage it
runs, in run order, through ``pipeline.run_stage``: a stage of
``pipeline.SHARED_STAGES`` runs once and one of ``pipeline.CHAIN_STAGES``
once per code width of the full model. Their prerequisites must have run
first (the error message names the missing stage). ``eval`` additionally
assembles and prints report.txt, which holds every (variant, width) chain
whose eval stage has completed (``pipeline.build_report``): the full
model's rows, and after an ``ablate`` every variant's. ``ablate`` runs the
whole variant grid, prerequisites included, and prints report.txt followed
by ablation.txt, the stream probes.

``--config`` and ``--work-dir`` are used whenever they are given, even
empty: an empty ``--config`` names no readable file, and an empty
``--work-dir`` is refused by ``RunConfig``; either exits 2.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from .config import RunConfig
from .exceptions import ConfigError, PipelineError
from .gradcheck import student_gradient_check, teacher_gradient_check
from . import pipeline

STAGE_COMMANDS = {"synth-data": "data", "train-teacher": "teacher", "build-graph": "graph",
                  "train-student": "student", "encode": "encode", "eval": "eval"}


def _load_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config is not None else RunConfig()
    # replace() builds a new config, so work_dir passes every check
    return cfg if args.work_dir is None else replace(cfg, work_dir=args.work_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dkph",
        description="dual-stream knowledge-preserving hashing pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*STAGE_COMMANDS, "ablate"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file (defaults apply otherwise)")
        p.add_argument("--work-dir", help="override the configured work directory")
    g = sub.add_parser("gradcheck")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--step", type=float, default=1e-5)
    g.add_argument("--tolerance", type=float, default=1e-4)

    args = parser.parse_args(argv)
    if args.command == "gradcheck":
        if args.seed < 0:
            g.error(f"--seed must be >= 0, got {args.seed}")
        for flag, value in (("--step", args.step), ("--tolerance", args.tolerance)):
            if not 0 < value < math.inf:
                g.error(f"{flag} must be positive and finite, got {value:g}")
    try:
        return _dispatch(args)
    except (ConfigError, PipelineError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "gradcheck":
        failed = False
        for name, fn in (("teacher", teacher_gradient_check),
                         ("student", student_gradient_check)):
            report = fn(seed=args.seed, step=args.step)
            ok = report.max_rel_error < args.tolerance
            failed |= not ok
            print(f"{name}: max_rel_error={report.max_rel_error:.3e} "
                  f"over {report.param_count} parameters "
                  f"[{'PASS' if ok else 'FAIL'} at {args.tolerance:g}] "
                  f"(sign layer excluded: checked on the tanh relaxation)")
        return 1 if failed else 0

    cfg = _load_config(args)
    run_dir = pipeline.run_layout(cfg)
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create work dir {run_dir}: {err.strerror or err}") from err
    print(f"work dir: {run_dir}")

    if args.command == "ablate":
        print(pipeline.ablation_suite(cfg).text, end="")
        print((run_dir / "ablation.txt").read_text(), end="")
    else:
        pipeline.run_stage(cfg, run_dir, STAGE_COMMANDS[args.command])
        if args.command == "eval":
            print(pipeline.build_report(cfg, run_dir).text, end="")
    print(f"{args.command}: done")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
