"""CLI exit codes and outputs on a tiny configuration."""

import pytest

from dkph import cli, serial
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


def test_data_teacher_graph_in_order_write_the_graph(tiny):
    cfg, args = tiny
    for command in ("synth-data", "train-teacher", "build-graph"):
        assert cli.main([command, *args]) == 0
    positives, negatives, header = serial.load_graph(run_layout(cfg) / "graph.bin")
    assert header["n"] == len(positives) == len(negatives) == 150
    assert header["n_centers"] == 6 and header["p"] == 3


def test_gradcheck_passes_at_default_tolerance(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS at 0.0001]") == 2
