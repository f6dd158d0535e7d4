import importlib
import pkgutil

import pytest

import stochtaylor

MODULES = ["stochtaylor"] + sorted(
    f"stochtaylor.{m.name}" for m in pkgutil.iter_modules(stochtaylor.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a deletion must take its exports with it
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)
