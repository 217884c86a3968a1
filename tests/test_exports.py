"""The package's public list: ``joinlab.__all__`` is the lazy export table
of ``__init__.py``, each name written once, so a deleted function cannot
leave a stale export behind."""

import importlib

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
