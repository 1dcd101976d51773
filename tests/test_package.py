"""The package's public names, and the names the benchmark traces."""

import ast
import importlib
from pathlib import Path

import dkph

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "dkph"


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


def test_every_private_helper_is_referenced_outside_its_definition():
    # a module-level _function or _Class that nothing in the package names
    # outside its own body was left behind when its last caller went
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert trees
    refs = [(node, node.id if isinstance(node, ast.Name) else node.attr)
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for tree in trees:
        for helper in tree.body:
            if not (isinstance(helper, (ast.FunctionDef, ast.ClassDef))
                    and helper.name.startswith("_") and not helper.name.startswith("__")):
                continue
            inside = {id(node) for node in ast.walk(helper)}
            if not any(name == helper.name and id(node) not in inside for node, name in refs):
                unused.append(helper.name)
    assert unused == []
