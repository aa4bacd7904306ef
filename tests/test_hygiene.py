"""Import hygiene: every name a module imports is read somewhere in it.

An AST scan of the modules under src/ and tests/; package __init__.py files
are exempt because their imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the import statements of source that it never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_scan_finds_unread_imports():
    source = ("from __future__ import annotations\nimport os, os.path\n"
              "import numpy as np\nfrom a.b import c, d as e\n"
              "def f():\n    from g import h\n    return e(np.pi)\n")
    assert unused_imports(source) == ["c", "h", "os"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
