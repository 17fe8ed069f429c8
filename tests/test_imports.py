"""Every name a graphflow module imports is used in that module.

No linter runs on this code base, so this guard catches the imports a
deletion leaves behind.  ``__init__`` is left out: its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names ``source`` imports, at any depth, and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "import numpy as np\n"
              "from .graphs import ball, rings\n"
              "def f():\n"
              "    import json\n"
              "    return np.zeros(ball(1))\n")
    assert unused_imports(source) == [(2, "os"), (2, "osp"), (4, "rings"), (6, "json")]
