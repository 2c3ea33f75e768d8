"""The package's public names: each resolves, and each formula has one name."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import interevent as iv

MODULES = ["interevent", "interevent.core", "interevent.densities", "interevent.moments",
           "interevent.simulate", "interevent.empirical", "interevent.fitting", "interevent.cli"]
# the public names a submodule exports beyond its entry in the package's table
OWN = {"core": {"Weight"}, "simulate": {"BLOCK"}, "cli": {"run", "main", "entry"}}


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


# Imports one submodule before anything else of the package, then prints its ``__all__`` and the
# names that ``from ... import *`` binds
_FIRST_IMPORT = """
import importlib, json, sys
module = importlib.import_module(sys.argv[1])
star = {}
exec(f"from {sys.argv[1]} import *", star)
print(json.dumps([module.__all__, sorted(set(star) - {"__builtins__"})]))
"""


@pytest.mark.parametrize("module", sorted(iv._EXPORTS))
def test_each_submodule_imported_first_exports_its_table_entry(module):
    # a submodule reads its __all__ from the package's table while the package is still loading,
    # which the imports above, made after the package, cannot see
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    r = subprocess.run([sys.executable, "-c", _FIRST_IMPORT, f"interevent.{module}"], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    names, star = json.loads(r.stdout)
    assert len(names) == len(set(names))
    assert set(names) == set(star) == set(iv._EXPORTS[module]) | OWN.get(module, set())


def test_dir_lists_every_public_name():
    assert set(iv.__all__) <= set(dir(iv))


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'interevent' has no attribute 'no_such_name'"):
        iv.no_such_name
