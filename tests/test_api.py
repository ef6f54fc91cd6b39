"""The public API: ``homcount.__all__`` names exactly what the package imports."""

import ast
from pathlib import Path

import homcount


def test_all_resolves_and_matches_the_imports():
    tree = ast.parse(Path(homcount.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(homcount.__all__) == len(set(homcount.__all__))
    assert set(homcount.__all__) == imported
    for name in homcount.__all__:
        assert getattr(homcount, name) is not None, name
