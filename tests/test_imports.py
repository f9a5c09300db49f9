"""Every name that a ``pcsp`` module imports is used in that module."""

import ast
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
