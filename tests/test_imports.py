"""Every name a graphflow module imports is used, and every definition is named.

No linter runs on this code base, so these guards catch what a deletion
leaves behind: an import the module no longer reads (``__init__`` is left
out, as its imports are the package's public names), and a top-level
function or class that no code, test, demo or benchmark names outside its
own definition.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SEARCHED = sorted(p for d in ("src", "tests", "demos", "bench") for p in (ROOT / d).rglob("*.py"))


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


def dead_definitions(source, others):
    """The top-level functions and classes of ``source`` named nowhere else.

    A name counts wherever it stands as a word: in ``source`` outside the
    lines of its own definition (decorators included), or in any text of
    ``others``.
    """
    lines = source.splitlines()
    dead = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            rest = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(text) for text in (rest, *others)):
                dead.append((node.lineno, node.name))
    return dead


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_definition_is_named_elsewhere(path):
    others = [p.read_text() for p in SEARCHED if p != path]
    assert dead_definitions(path.read_text(), others) == []


def test_the_guard_sees_a_dead_definition():
    source = ("import functools\n"
              "@functools.cache\n"
              "def _helper(x):\n"
              "    return _helper(x - 1) if x else 0\n"
              "class Kept:\n"
              "    pass\n"
              "def lonely():\n"
              "    return 1\n"
              "def caller():\n"
              "    return Kept()\n")
    assert dead_definitions(source, ["caller()", "# lonely_too"]) == [(3, "_helper"),
                                                                        (7, "lonely")]
