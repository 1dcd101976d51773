"""CLI exit codes and outputs on a tiny configuration."""

import errno
import json
import re
from dataclasses import replace

import pytest

from dkph import cli, pipeline, serial
from dkph.config import RunConfig
from dkph.pipeline import run_layout


@pytest.fixture
def tiny(tmp_path):
    """A tiny run config written to disk, and the CLI arguments that use it."""
    cfg = RunConfig(num_classes=6, videos_per_class=50, frames=4, model_dim=8,
                    teacher_bits=16, num_anchors=6, anchor_neighbors=3,
                    teacher_epochs=10, student_epochs=10, work_dir=str(tmp_path / "work"))
    path = tmp_path / "run.cfg"
    cfg.save(path)
    return cfg, ["--config", str(path)]


def test_build_graph_before_teacher_fails_naming_the_stage(tiny, capsys):
    cfg, args = tiny
    assert cli.main(["synth-data", *args]) == 0
    capsys.readouterr()
    assert cli.main(["build-graph", *args]) == 2
    err = capsys.readouterr().err
    assert "prerequisite stage 'teacher' has not run" in err
    assert not (run_layout(cfg) / "graph.bin").exists()


def test_a_damaged_stage_record_reruns_the_stage(tiny):
    cfg, args = tiny
    assert cli.main(["synth-data", *args]) == 0
    meta = run_layout(cfg) / "meta" / "data.json"
    # cut short, and valid JSON that is not an object with a list of output names
    header = {"config_hash": cfg.config_hash(), "code_version": pipeline.CODE_VERSION}
    records = [meta.read_bytes()[:20], b"[1, 2]", b"5", b"null", json.dumps(header).encode(),
               *(json.dumps({**header, "outputs": outputs}).encode() for outputs in ("x", [5])),
               # another stage's record, whole and otherwise current
               json.dumps({**json.loads(meta.read_text()), "stage": "teacher"}).encode()]
    for record in records:
        meta.write_bytes(record)
        assert cli.main(["synth-data", *args]) == 0, record
        assert json.loads(meta.read_text())["stage"] == "data"
        assert [p.name for p in meta.parent.iterdir()] == ["data.json"]


def test_a_record_that_cannot_be_written_exits_2_and_leaves_none(tiny, capsys, monkeypatch):
    cfg, args = tiny

    def disk_full(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(pipeline.os, "replace", disk_full)
    assert cli.main(["synth-data", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'data' failed: cannot write its record ")
    assert err.rstrip().endswith("No space left on device")
    meta = run_layout(cfg) / "meta"
    assert list(meta.iterdir()) == []
    monkeypatch.undo()
    assert cli.main(["synth-data", *args]) == 0
    assert [p.name for p in meta.iterdir()] == ["data.json"]
    assert pipeline.stage_completed(run_layout(cfg), "data", cfg)


def test_data_teacher_graph_in_order_write_the_graph(tiny):
    cfg, args = tiny
    for command in ("synth-data", "train-teacher", "build-graph"):
        assert cli.main([command, *args]) == 0
    assert serial.load_graph(run_layout(cfg) / "graph.bin").n == 150
    centers = serial.load_checkpoint(run_layout(cfg) / "anchors.ckpt")["centers"]
    assert centers.shape == (6, cfg.model_dim)


@pytest.mark.parametrize("content", [None, b"\xff\xfe not utf-8\n"], ids=["missing", "binary"])
def test_an_unreadable_config_file_exits_2_naming_the_path(tmp_path, capsys, content):
    path = tmp_path / "run.cfg"
    if content is not None:
        path.write_bytes(content)
    assert cli.main(["synth-data", "--config", str(path)]) == 2
    assert f"error: cannot read config {path}: " in capsys.readouterr().err


def test_a_work_dir_that_cannot_be_made_exits_2_naming_the_path(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["synth-data", "--work-dir", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create work dir {blocker / 'sub' / 'run-'}")
    assert err.rstrip().endswith(": Not a directory")


@pytest.mark.parametrize("flag, value", [
    ("--step", "0"), ("--step", "-1e-5"), ("--step", "inf"), ("--step", "nan"),
    ("--tolerance", "0"), ("--tolerance", "-1"), ("--tolerance", "inf"), ("--tolerance", "nan"),
], ids=["0", "-1e-5", "step-inf", "step-nan",
        "tolerance-0", "tolerance--1", "tolerance-inf", "tolerance-nan"])
def test_gradcheck_rejects_a_non_positive_step(capsys, flag, value):
    # rejected before any check runs, so nothing reaches stdout
    with pytest.raises(SystemExit) as exc:
        cli.main(["gradcheck", f"{flag}={value}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{flag} must be positive and finite, got {float(value):g}" in err


def test_gradcheck_rejects_a_negative_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gradcheck", "--seed=-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--seed must be >= 0, got -1" in err


def test_gradcheck_passes_at_default_tolerance(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS at 0.0001]") == 2


STAGE_ORDER = list(cli.STAGE_COMMANDS)


def test_stage_commands_run_the_pipeline_tables_in_order(capsys):
    stages = list(cli.STAGE_COMMANDS.values())
    for stage in stages:
        assert (stage in pipeline.SHARED_STAGES) != (stage in pipeline.CHAIN_STAGES), stage
    assert stages == [*pipeline.SHARED_STAGES, *pipeline.CHAIN_STAGES]
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    choices = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1).split(",")
    assert sorted(choices) == sorted([*cli.STAGE_COMMANDS, "ablate", "gradcheck"])


def run_through(args, last):
    """Run the stage subcommands in order, up to and including ``last``."""
    for command in STAGE_ORDER[:STAGE_ORDER.index(last) + 1]:
        assert cli.main([command, *args]) == 0, command


@pytest.mark.parametrize("command, missing, outputs", [
    ("train-student", "graph", ("student_{}.ckpt", "student_{}_log.txt")),
    ("encode", "student_16", ("query_{}.codes", "database_{}.codes")),
    ("eval", "encode_16", ("metrics_{}.json", "report.txt")),
])
def test_a_stage_before_its_prerequisite_exits_2_naming_it(tiny, capsys, command, missing,
                                                           outputs):
    cfg, args = tiny
    earlier = STAGE_ORDER[STAGE_ORDER.index(command) - 2]
    run_through(args, earlier)  # every stage but the one right before command
    capsys.readouterr()
    assert cli.main([command, *args]) == 2
    assert f"prerequisite stage {missing!r} has not run" in capsys.readouterr().err
    for bits in cfg.code_bits:
        for out in outputs:
            assert not (run_layout(cfg) / out.format(bits)).exists(), out.format(bits)


def test_train_student_writes_a_checkpoint_and_log_per_width(tiny):
    cfg, args = tiny
    run_through(args, "train-student")
    for bits in cfg.code_bits:
        ckpt = serial.load_checkpoint(run_layout(cfg) / f"student_{bits}.ckpt")
        assert ckpt["w_hash"].shape == (cfg.frames * cfg.model_dim, bits)
        assert (run_layout(cfg) / f"student_{bits}_log.txt").exists()


def test_encode_writes_query_and_database_codes_per_width(tiny):
    cfg, args = tiny
    run_through(args, "encode")
    for bits in cfg.code_bits:
        for split in ("query", "database"):
            packed, k = serial.load_codes(run_layout(cfg) / f"{split}_{bits}.codes")
            assert k == bits and packed.shape[1] == (bits + 7) // 8


def test_eval_prints_the_report(tiny, capsys):
    cfg, args = tiny
    run_through(args, "encode")
    capsys.readouterr()
    assert cli.main(["eval", *args]) == 0
    out = capsys.readouterr().out
    report = (run_layout(cfg) / "report.txt").read_text()
    assert report.startswith("dkph run report\n") and report in out


def test_ablate_prints_the_ablation_report(tiny, capsys):
    # the report of every variant's rows, then the probe rows
    cfg, args = tiny
    assert cli.main(["ablate", *args]) == 0
    out = capsys.readouterr().out
    run_dir = run_layout(cfg)
    report, ablation = ((run_dir / name).read_text() for name in ("report.txt", "ablation.txt"))
    assert ablation.startswith("dkph ablation report\n") and ablation in out
    assert "map bits=16 variant=no_dual k=" in report
    assert out == f"work dir: {run_dir}\n{report}{ablation}ablate: done\n"


def test_an_empty_config_flag_exits_2_naming_the_path(tmp_path, capsys):
    assert cli.main(["synth-data", "--config", "", "--work-dir", str(tmp_path)]) == 2
    assert "error: cannot read config '': " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_an_empty_work_dir_flag_exits_2_naming_it(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default work dir is relative
    assert cli.main(["synth-data", "--work-dir", ""]) == 2
    assert "error: work_dir = '': must be a string and not empty" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_a_graph_without_positive_edges_is_reported_naming_the_sign(tiny, tmp_path, caplog):
    cfg, _ = tiny
    cfg = replace(cfg, lambda1=1e6)  # no affinity lies a million deviations above its row mean
    path = tmp_path / "strict.cfg"
    cfg.save(path)
    run_through(["--config", str(path)], "build-graph")
    assert "the signed graph has no positive edges" in caplog.text
    assert "no negative edges" not in caplog.text
    offsets = serial.load_graph(run_layout(cfg) / "graph.bin").offsets
    assert offsets[0, -1] == offsets[0, 0] and offsets[1, -1] > offsets[1, 0]


def test_eval_after_ablate_prints_every_variant_rows(tiny, capsys):
    # eval runs no stage here, and its report keeps every chain on disk
    cfg, args = tiny
    assert cli.main(["ablate", *args]) == 0
    run_dir = run_layout(cfg)
    report = (run_dir / "report.txt").read_text()
    capsys.readouterr()
    assert cli.main(["eval", *args]) == 0
    assert capsys.readouterr().out == f"work dir: {run_dir}\n{report}eval: done\n"
    assert (run_dir / "report.txt").read_text() == report
    for variant, bits in pipeline.model_chains(cfg, pipeline.ABLATION_VARIANTS):
        chain = f"bits={bits}" if variant == "full" else f"bits={bits} variant={variant}"
        assert f"\nmap {chain} k=5 = " in report, chain
