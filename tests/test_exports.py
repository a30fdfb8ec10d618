"""Every exported name resolves, so a removed definition cannot leave a stale export."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def _tracer_patches():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.PATCHES


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _tracer_patches()])
def test_traced_names_resolve(module, attr):
    # the benchmark tracer wraps each of these; a missing one breaks a traced run
    assert callable(getattr(importlib.import_module(f"changepoint.{module}"), attr, None))
