"""Every name a graphflow module imports is used, every definition is named,
every defaulted parameter is set by some call, and every config key is set
by some config.

No linter runs on this code base, so these guards catch what a deletion
leaves behind: an import the module no longer reads (``__init__`` is left
out, as its imports are the package's public names), a top-level
function or class that no code, test, demo or benchmark names outside its
own definition, a method or property that none reads as ``.name``, and a
parameter with a default, or a defaulted dataclass field that ``__init__``
takes, that no call there ever sets: a setting with one value in use is a
constant.  A ``CONFIG_SCHEMA`` key that no config sets is such a setting
too.
"""

import ast
import re
from pathlib import Path

import pytest

from graphflow.cli import CONFIG_SCHEMA

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
    """The top-level functions and classes of ``source`` and their members named nowhere else.

    A member is a method, a property or a cached property of a top-level
    class (dunder methods are called by the language); one assigned as
    ``name = property(...)`` counts too.  A top-level name counts wherever
    it stands as a word, a member wherever ``.name`` stands: in ``source``
    outside the lines of its own definition (decorators included), or in
    any text of ``others``.  Members are labelled ``Class.name``.
    """
    lines = source.splitlines()
    dead = []

    def named(node, pattern):
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        rest = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
        return any(pattern.search(text) for text in (rest, *others))

    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not named(node, re.compile(rf"\b{re.escape(node.name)}\b")):
                dead.append((node.lineno, node.name))
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [member.name]
            elif (isinstance(member, ast.Assign) and isinstance(member.value, ast.Call)
                  and getattr(member.value.func, "id", None) == "property"):
                names = [t.id for t in member.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("__") and not named(
                        member, re.compile(rf"\.{re.escape(name)}\b")):
                    dead.append((member.lineno, f"{node.name}.{name}"))
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


def test_the_guard_sees_a_dead_member():
    source = ("from functools import cached_property\n"
              "class Box:\n"
              "    def __len__(self):\n"
              "        return self.size\n"
              "    def grow(self):\n"
              "        return self.grow()\n"
              "    @property\n"
              "    def size(self):\n"
              "        return 1\n"
              "    @cached_property\n"
              "    def table(self):\n"
              "        return {}\n"
              "    def shrink(self):\n"
              "        return 0\n"
              "    edge = property(lambda self: 0)\n"
              "    tail = property(lambda self: 1)\n")
    # a bare word is no read of a member, nor is a read inside its own body
    assert dead_definitions(source, ["Box().table", "b.tail", "shrink()"]) == [
        (5, "Box.grow"), (13, "Box.shrink"), (15, "Box.edge")]


def _param_names(args):
    """The defaulted parameters of ``args`` and its positional ones, in order."""
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return defaulted, positional


def _is_dataclass(node):
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if getattr(d, "id", getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def _init_field(stmt):
    """``(name, has a default)`` of a dataclass field that ``__init__`` takes, else None."""
    if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
        return None
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        kws = {k.arg: k.value for k in value.keywords}
        if isinstance(kws.get("init"), ast.Constant) and kws["init"].value is False:
            return None
        return stmt.target.id, "default" in kws or "default_factory" in kws
    return stmt.target.id, value is not None


def _definitions(tree):
    """``(callee names, offset, node, label, defaulted, positional)`` for each definition.

    A function is called by its name; a method by its name, bound (the
    positional ``offset`` 1); ``__init__``, or the one a dataclass
    generates, by its class's name and by ``cls`` inside the class.
    Dunder methods other than ``__init__`` are called by the language and
    left out.
    """
    out = []

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [f for f in map(_init_field, child.body) if f]
                    out.append(({child.name, ("cls", child.name)}, 0, child, child.name,
                                [n for n, d in fields if d], [n for n, _ in fields]))
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, (defaulted, positional) = child.name, _param_names(child.args)
                if cls is None:
                    out.append(({name}, 0, child, name, defaulted, positional))
                elif name == "__init__":
                    out.append(({cls.name, ("cls", cls.name)}, 1, child, cls.name,
                                defaulted, positional))
                elif not name.startswith("__"):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in child.decorator_list)
                    out.append(({name}, 0 if static else 1, child, f"{cls.name}.{name}",
                                defaulted, positional))
                visit(child)
            else:
                visit(child, cls)

    visit(tree)
    return out


def _calls(tree):
    """``(callee name, call, enclosing function)`` for each call in ``tree``.

    ``cls(...)`` inside a class is named ``("cls", <class name>)``.
    """
    out = []

    def visit(node, func=None, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                out.append((("cls", cls) if name == "cls" and cls else name, child, func))
            is_func = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child if is_func else func,
                  child.name if isinstance(child, ast.ClassDef) else cls)

    visit(tree)
    return out


def unset_parameters(sources):
    """The defaulted parameters of the definitions in ``sources`` that no call sets.

    ``sources`` maps a file name to its text; calls are matched to
    definitions by name.  A call sets a parameter by keyword or by
    position.  A ``*`` argument sets every parameter; a ``**`` argument
    sets every one whose name the calling file spells as a string or a
    keyword, the keys a mapping can be given there.  An argument that is a
    defaulted parameter of the calling function, never rebound there,
    forwards it: it sets the parameter only once a call sets the caller's.
    Returns sorted ``(file, line, definition, parameter)`` tuples.
    """
    trees = {file: ast.parse(text) for file, text in sources.items()}
    by_name, defs = {}, []
    for file, tree in trees.items():
        for names, offset, node, label, defaulted, positional in _definitions(tree):
            entry = (file, node, offset, defaulted, positional)
            defs.append((file, node.lineno, label, node, defaulted))
            for n in names:
                by_name.setdefault(n, []).append(entry)
    # (file, node, parameter) -> what sets it: True for a value, else the
    # (file, function, parameter) it forwards
    setters = {}
    for file, tree in trees.items():
        spelled = ({n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)}
                   | {k.arg for k in ast.walk(tree) if isinstance(k, ast.keyword)})
        for name, call, func in _calls(tree):
            def setter(arg):
                if func is None or not isinstance(arg, ast.Name):
                    return True
                rebound = any(isinstance(n, ast.Name) and n.id == arg.id
                              and isinstance(n.ctx, ast.Store) for n in ast.walk(func))
                forwards = arg.id in _param_names(func.args)[0] and not rebound
                return (file, func, arg.id) if forwards else True

            starred = any(isinstance(a, ast.Starred) for a in call.args)
            for dfile, node, offset, defaulted, positional in by_name.get(name, ()):
                passed = {p: True for p in defaulted if starred}
                for k in call.keywords:
                    if k.arg is not None:
                        passed[k.arg] = setter(k.value)
                    else:
                        passed.update({p: True for p in defaulted if p in spelled})
                for p, a in zip(positional[offset:], call.args):
                    if not isinstance(a, ast.Starred):
                        passed.setdefault(p, setter(a))
                for p in defaulted:
                    if p in passed:
                        setters.setdefault((dfile, node, p), set()).add(passed[p])
    done, grew = set(), True
    while grew:   # a forwarded parameter is set once its caller's is
        grew = False
        for key, by in setters.items():
            if key not in done and any(s is True or s in done for s in by):
                done.add(key)
                grew = True
    return sorted((file, line, label, p) for file, line, label, node, defaulted in defs
                  for p in defaulted if (file, node, p) not in done)


def test_every_defaulted_parameter_is_set_somewhere():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SEARCHED}
    package = str(PACKAGE.relative_to(ROOT))
    assert [u for u in unset_parameters(sources) if u[0].startswith(package)] == []


def test_the_guard_sees_an_unset_parameter():
    lib = ("from dataclasses import dataclass, field\n"
           "def solve(x, tol=1e-8, steps=10, *, seed=0):\n"
           "    return inner(x, tol=tol, seed=seed)\n"
           "def inner(x, tol=1e-8, seed=0, cap=5):\n"
           "    return x\n"
           "@dataclass\n"
           "class Config:\n"
           "    p: float\n"
           "    rtol: float = 1e-8\n"
           "    cache: dict = field(init=False, default=None)\n"
           "    limit: int = 9\n"
           "    def __repr__(self, short=True):\n"
           "        return 'Config'\n"
           "class Box:\n"
           "    def __init__(self, a, b=1):\n"
           "        self.a = a\n"
           "    @classmethod\n"
           "    def make(cls):\n"
           "        return cls(1, 2)\n"
           "    def grow(self, k=2, j=0):\n"
           "        return self\n")
    use = ("kw = {'rtol': 1e-9}\n"
           "solve(1, seed=3)\n"
           "Config(3.0, **kw)\n"
           "Box.make().grow(*[4])\n")
    assert unset_parameters({"lib.py": lib, "use.py": use}) == [
        ("lib.py", 2, "solve", "steps"), ("lib.py", 2, "solve", "tol"),
        ("lib.py", 4, "inner", "cap"), ("lib.py", 4, "inner", "tol"),
        ("lib.py", 7, "Config", "limit")]


def schema_paths(schema, path=()):
    """The property paths of a JSON schema, such as ``("checks", "type")``.

    The items of an array take the array's path.
    """
    for name, sub in schema.get("properties", {}).items():
        yield (*path, name)
        yield from schema_paths(sub, (*path, name))
    if "items" in schema:
        yield from schema_paths(schema["items"], path)


def _literal_paths(node):
    """Key paths through the nested dict and list literals of an expression."""
    if isinstance(node, ast.Dict):
        for key, value in zip(node.keys, node.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                yield (key.value,)
                yield from ((key.value, *rest) for rest in _literal_paths(value))
    elif isinstance(node, (ast.List, ast.Tuple)):
        for item in node.elts:
            yield from _literal_paths(item)


def set_key_paths(source):
    """The key paths that ``source``, Python or JSON, sets.

    A key is set by a dict literal, a keyword argument (``dict(cfg, seed=1)``,
    ``cfg.update(profile={...})``) or a subscript assignment
    (``cfg["solver"]["t_max"] = 1.0``); the literals it is set to extend its
    path.
    """
    for node in ast.walk(ast.parse(source)):
        keys, value = (), None
        if isinstance(node, ast.Dict):
            yield from _literal_paths(node)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            keys, value = (node.arg,), node.value
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                while isinstance(target, ast.Subscript):
                    key = target.slice
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys = (key.value, *keys)
                    target = target.value
            value = node.value
        if keys:
            yield keys
            yield from ((*keys, *rest) for rest in _literal_paths(value))


def unset_schema_keys(schema, sources):
    """The property paths of ``schema`` that no text of ``sources`` sets, as ``a/b``.

    A path is set where its keys stand in a row in a key path some source
    sets, so ``initial_data/path`` does not set ``profile/path``.
    """
    rows = set()
    for text in sources:
        for keys in set_key_paths(text):
            rows.update(keys[i:j] for i in range(len(keys)) for j in range(i + 1, len(keys) + 1))
    return ["/".join(path) for path in schema_paths(schema) if path not in rows]


def test_every_schema_key_is_set_by_some_config():
    sources = [p.read_text() for d in ("configs", "tests", "bench", "demos")
               for p in sorted((ROOT / d).rglob("*"))
               if p.suffix in (".py", ".json")
               and not any(part.startswith((".", "__")) for part in p.relative_to(ROOT).parts)]
    assert unset_schema_keys(CONFIG_SCHEMA, sources) == []


def test_the_guard_sees_an_unset_schema_key():
    schema = {"properties": {
        "run": {"properties": {"path": {}, "size": {}}},
        "data": {"properties": {"path": {}, "tag": {}, "scale": {}}},
        "steps": {"items": {"properties": {"kind": {}, "rate": {}}}},
        "seed": {}}}
    sources = [
        '{"data": {"path": "u0.csv"}, "steps": [{"kind": "fit"}], "seed": 1}\n',
        "cfg = make(run={'size': 2})\n"
        "cfg['data']['tag'] = 'x'\n"
        "cfg.update(steps=[dict(rate=2)])\n"
        "scale = 3\n"]
    assert unset_schema_keys(schema, sources) == ["run/path", "data/scale", "steps/rate"]


def unseeded_draws(source):
    """``(line, name)`` for each way ``source`` can draw random numbers but one.

    The one allowed way is ``np.random.default_rng(<int literal>)``, so
    equal inputs draw equal numbers.  Flagged are ``default_rng`` with any
    other argument, every other attribute of ``np.random`` (the global
    state and its functions, the bit generators) and imports of
    ``random``, ``secrets`` or ``numpy.random``.
    """
    tree = ast.parse(source)
    found, allowed = [], set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "default_rng"
                and len(node.args) == 1 and not node.keywords
                and isinstance(node.args[0], ast.Constant) and type(node.args[0].value) is int):
            allowed.add(node.func)
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in ("random", "secrets", "numpy.random")]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
            found += [(node.lineno, n) for n in names
                      if n in ("random", "secrets", "numpy.random")][:1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "random"
                and getattr(node.value.value, "id", None) in ("np", "numpy")
                and node not in allowed):
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_random_numbers_come_from_a_literal_seed(path):
    assert unseeded_draws(path.read_text()) == []


def test_the_guard_sees_an_unseeded_draw():
    source = ("import random\n"
              "import numpy as np\n"
              "from numpy.random import default_rng\n"
              "a = np.random.default_rng(0).uniform(0.05, 1.0, 3)\n"
              "b = np.random.default_rng(seed).uniform()\n"
              "c = np.random.default_rng()\n"
              "d = np.random.uniform(0.0, 1.0)\n"
              "np.random.seed(3)\n"
              "from numpy import random as npr\n"
              "e = np.random.default_rng(True)\n")
    assert unseeded_draws(source) == [(1, "random"), (3, "numpy.random"), (5, "default_rng"),
                                      (6, "default_rng"), (7, "uniform"), (8, "seed"),
                                      (9, "numpy.random"), (10, "default_rng")]
