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
