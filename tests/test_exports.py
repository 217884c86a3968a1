"""The package's public list: ``joinlab.__all__`` names exactly what
``__init__.py`` imports, once each, so a deleted function cannot leave a
stale export behind."""

import ast
from pathlib import Path

import joinlab


def test_all_lists_each_imported_name_once():
    tree = ast.parse(Path(joinlab.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    exported = joinlab.__all__
    assert len(set(exported)) == len(exported)
    assert sorted(exported) == sorted([*imported, "__version__"])
    for name in exported:
        assert hasattr(joinlab, name), name
