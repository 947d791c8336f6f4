"""The public surface: README names every exported name, and every
function the per-layer tracer of ``perfbench/layertrace.py`` wraps exists."""

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
