"""The public API: ``heckediv.__all__`` lists exactly the public names that
``heckediv/__init__.py`` binds, each once, and each resolves."""

import ast
from pathlib import Path

import heckediv


def _bound_public_names() -> set:
    tree = ast.parse(Path(heckediv.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def test_every_export_resolves():
    missing = [name for name in heckediv.__all__ if not hasattr(heckediv, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(heckediv.__all__) == len(set(heckediv.__all__))


def test_exports_match_bound_names():
    assert set(heckediv.__all__) == _bound_public_names()
