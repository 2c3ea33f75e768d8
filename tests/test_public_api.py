"""The package's public names: each resolves, and each formula has one name."""

import importlib

import pytest

import interevent as iv

MODULES = ["interevent", "interevent.core", "interevent.densities", "interevent.moments",
           "interevent.simulate", "interevent.empirical", "interevent.fitting", "interevent.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing


def test_no_public_name_aliases_another():
    seen = {}
    aliases = []
    for name in iv.__all__:
        obj = getattr(iv, name)
        if id(obj) in seen:
            aliases.append((seen[id(obj)], name))
        else:
            seen[id(obj)] = name
    assert not aliases, aliases


def test_every_public_name_is_its_home_submodules_object():
    star = {}
    exec("from interevent import *", star)
    for name in iv.__all__:
        if name != "__version__":
            home = importlib.import_module(f"interevent.{iv._HOME[name]}")
            assert getattr(iv, name) is getattr(home, name) is star[name], name


@pytest.mark.parametrize("module", sorted(iv._EXPORTS))
def test_each_lazy_table_entry_is_exported_by_its_submodule(module):
    home = importlib.import_module(f"interevent.{module}")
    assert getattr(iv, module) is home
    assert set(iv._EXPORTS[module]) <= set(home.__all__)


def test_dir_lists_every_public_name():
    assert set(iv.__all__) <= set(dir(iv))


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'interevent' has no attribute 'no_such_name'"):
        iv.no_such_name
