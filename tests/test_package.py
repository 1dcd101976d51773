"""The package's public names, and the names the benchmark traces."""

import importlib
from pathlib import Path

import dkph

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_exported_name_resolves():
    missing = [name for name in dkph.__all__ if not hasattr(dkph, name)]
    assert missing == []
    assert len(set(dkph.__all__)) == len(dkph.__all__)


def test_every_benchmark_trace_target_resolves(monkeypatch):
    # perfbench reports an absent target as zero calls instead of failing,
    # so a rename in dkph would silently empty a per-layer metric
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    missing = []
    for layer, attrs in spans.TARGETS.items():
        module = importlib.import_module(f"dkph.{layer}")
        for attr in attrs:
            owner = module
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{attr}")
    assert missing == []
