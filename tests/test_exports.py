"""The package's public list: ``joinlab.__all__`` is the lazy export table
of ``__init__.py``, each name written once, so a deleted function cannot
leave a stale export behind.  Nor a stale import: every module of the
package and of the tests reads each name it imports.  Nor a stale
parameter: every function of the package reads each parameter it takes."""

import ast
import importlib
from pathlib import Path

import pytest

import joinlab


def test_all_lists_each_imported_name_once():
    names = [name for names in joinlab._EXPORTS.values() for name in names]
    assert len(set(names)) == len(names)
    assert joinlab.__all__ == [*names, "__version__"]
    for module, module_names in joinlab._EXPORTS.items():
        defining = importlib.import_module(f"joinlab.{module}")
        for name in module_names:
            assert getattr(joinlab, name) is vars(defining)[name], (module, name)
    assert set(joinlab.__all__) <= set(dir(joinlab))


@pytest.mark.parametrize("name", ["no_such_name", "_face_gap", "_EXPORTS_"])
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(joinlab, name)
    assert not hasattr(joinlab, name)


def _imported_names(tree):
    """(line, name) of every name an import binds, ``from __future__``
    aside: the alias, else the first part of a dotted module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _read_names(tree):
    """Every name the module reads: as a name, as a function parameter
    (a pytest fixture) or as an entry of ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return names


def test_every_import_is_read():
    """No module under ``src/joinlab`` or ``tests`` imports a name it never
    reads: a stale import hides which helpers still have callers."""
    root = Path(__file__).resolve().parent.parent
    stale = []
    for path in sorted([*(root / "src" / "joinlab").glob("*.py"), *(root / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _read_names(tree)
        stale += [
            f"{path.relative_to(root)}:{line}: {name}"
            for line, name in _imported_names(tree) if name not in read
        ]
    assert stale == []


def _unread_parameters(tree):
    """(line, function, parameter) of every parameter that its function's
    body never reads, dunder methods aside: their protocol fixes the
    signature."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id for stmt in node.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for a in params:
            if a.arg not in read:
                yield node.lineno, node.name, a.arg


def test_every_parameter_is_read():
    """No function under ``src/joinlab`` takes a parameter it never reads:
    a stale parameter makes every caller build what nothing uses."""
    root = Path(__file__).resolve().parent.parent
    stale = []
    for path in sorted((root / "src" / "joinlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stale += [
            f"{path.relative_to(root)}:{line}: {name}({param})"
            for line, name, param in _unread_parameters(tree)
        ]
    assert stale == []
