"""Every exported name resolves, so a removed definition cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import changepoint

_MODULES = ["changepoint"] + [
    f"changepoint.{info.name}" for info in pkgutil.iter_modules(changepoint.__path__)
]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
