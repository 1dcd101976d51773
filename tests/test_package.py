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


def _defined_names(stmt) -> list[str]:
    """Names a module-level statement defines: a function's or class's, or
    the plain names an assignment binds, unpacked ones included."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [name.id for target in targets
            for name in (target.elts if isinstance(target, ast.Tuple) else [target])
            if isinstance(name, ast.Name)]


def test_every_private_helper_is_referenced_outside_its_definition():
    # a module-level _function, _Class or _CONSTANT that nothing in the
    # package names outside its own statement was left behind when its last
    # caller went
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert trees
    refs = [(node, node.id if isinstance(node, ast.Name) else node.attr)
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for tree in trees:
        for stmt in tree.body:
            private = [name for name in _defined_names(stmt)
                       if name.startswith("_") and not name.startswith("__")]
            inside = {id(node) for node in ast.walk(stmt)}
            unused += [name for name in private
                       if not any(ref == name and id(node) not in inside for node, ref in refs)]
    assert unused == []
