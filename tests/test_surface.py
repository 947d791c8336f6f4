"""The public surface: README names every exported name, every function
the per-layer tracer of ``perfbench/layertrace.py`` wraps exists, and
every test the CI workflow names exists."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import riskratio

ROOT = Path(__file__).resolve().parent.parent


def _layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "perfbench" / "layertrace.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _resolves(target) -> bool:
    owner = importlib.import_module(target.module)
    for part in target.qualname.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_traced_target_resolves():
    targets = _layertrace().TARGETS
    assert targets
    assert [t.key for t in targets if not _resolves(t)] == []


def test_readme_names_every_exported_name():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [n for n in riskratio.__all__ if not re.search(rf"\b{re.escape(n)}\b", readme)]
    assert missing == []


def _defines(test_id: str) -> bool:
    """Whether the file of a ``path::Class::name`` test id defines that chain."""
    path, *names = test_id.split("::")
    if not (ROOT / path).is_file():
        return False
    body = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for name in names:
        node = next(
            (n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name),
            None,
        )
        if node is None:
            return False
        body = node.body
    return True


def test_every_test_the_workflow_names_exists():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    ids = re.findall(r"tests/[\w/]+\.py(?:::\w+)*", workflow)
    assert any("::" in i for i in ids)
    assert [i for i in ids if not _defines(i)] == []
