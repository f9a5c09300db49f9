"""Every name that a ``pcsp`` module imports is used in that module, every
function, class and method it defines is named somewhere else, and no
module holds an ``assert`` statement (``python -O`` removes them)."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pcsp"


def unused_imports(source):
    """The names bound by the module's imports that no other line reads.

    A name counts as used when it is loaded anywhere in the module or
    listed in ``__all__``; ``from __future__`` imports bind no name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from math import comb, gcd\n"
              "print(os.sep, comb)\n")
    assert unused_imports(source) == [(2, "system"), (3, "gcd")]


ROOT = SRC.parent.parent


def definitions(source):
    """The top-level functions and classes of a module, and the methods of
    its classes whose names do not start with ``__``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [m.name for m in node.body
                      if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
    return names


def unnamed(names, texts):
    """The names that no text mentions as a whole word other than right
    after ``def`` or ``class``."""
    return [name for name in names
            if not any(re.search(r"(?<!def )(?<!class )\b%s\b" % re.escape(name), text)
                       for text in texts)]


def test_every_definition_is_named_elsewhere():
    texts = [p.read_text() for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    names = [(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name in definitions(path.read_text())]
    flagged = set(unnamed([name for _, name in names], texts))
    assert [(m, name) for m, name in names if name in flagged] == []


def test_the_scan_sees_an_unused_definition():
    module = ("def used():\n    pass\n\n\n"
              "def lonely():\n    pass\n\n\n"
              "class Box:\n"
              "    def __init__(self):\n        pass\n\n"
              "    def shut(self):\n        pass\n\n"
              "    def opened(self):\n        pass\n")
    other = "used()\nBox().opened()\nlonely_too = 1\n"
    assert definitions(module) == ["used", "lonely", "Box", "shut", "opened"]
    assert unnamed(definitions(module), [module, other]) == ["lonely", "shut"]


def asserts(source):
    """The line numbers of the module's ``assert`` statements."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_asserts(path):
    assert asserts((SRC / path).read_text()) == []


def test_the_scan_sees_an_assert():
    source = ("def f(x):\n"
              "    assert x, 'checked'\n"
              "    if x:\n"
              "        assert x > 0\n"
              "    return x\n")
    assert asserts(source) == [2, 4]
