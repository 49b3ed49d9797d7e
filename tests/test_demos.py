"""The demos are not run by the suite; check at least that every name they
import from the package still exists."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _package_imports(path: Path):
    """Yield ``(module, name)`` for each ``from sparsedyn... import name``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sparsedyn":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = list(_package_imports(demo))
    assert imports, f"{demo.name} imports nothing from sparsedyn"
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{demo.name}: {module}.{name}"
