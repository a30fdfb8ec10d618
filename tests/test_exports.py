"""Every exported name resolves, so a removed definition cannot leave a stale export.

The benchmark tracer's wrapped names resolve too, and each of its counters
reads the right count off a real call of the function it wraps.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import changepoint
from changepoint.montecarlo import SimConfig

_MODULES = ["changepoint"] + [
    f"changepoint.{info.name}" for info in pkgutil.iter_modules(changepoint.__path__)
]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


_TRACING = _load_tracing()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _TRACING.PATCHES])
def test_traced_names_resolve(module, attr):
    # the benchmark tracer wraps each of these; a missing one breaks a traced run
    assert callable(getattr(importlib.import_module(f"changepoint.{module}"), attr, None))


def _five_row_csv(tmp_path):
    path = tmp_path / "five.csv"
    path.write_text("y\n1.0\n2.5\n0.5\n3.0\n2.0\n", encoding="utf-8")
    return (str(path),), {}


def _ten_replications(tmp_path):
    return (SimConfig(n=40, tau=20, eta=1.5, replications=10, master_seed=1),), {}


# span -> (its call's (args, kwargs), the count its reader must give)
_COUNTER_CALLS = {
    "exactdist.build_ladder_tables": [
        (lambda tmp_path: ((1.0, 50), {}), 2500),
        (lambda tmp_path: ((1.0,), {"kmax": 50}), 2500),
    ],
    "model.read_dataset_csv": [(_five_row_csv, 5)],
    "montecarlo.run_study": [(_ten_replications, 10)],
}


def test_every_counter_has_a_real_call():
    assert sorted(_TRACING.COUNTERS) == sorted(_COUNTER_CALLS)


@pytest.mark.parametrize(
    "span, make_call, expected",
    [(span, make, n) for span, calls in _COUNTER_CALLS.items() for make, n in calls],
)
def test_counter_reads_a_real_call(span, make_call, expected, tmp_path, monkeypatch):
    # the reader sees what the tracer's wrapper sees: the call's args, kwargs and result
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    module, attr = next((m, a) for m, a, name in _TRACING.PATCHES if name == span)
    fn = getattr(importlib.import_module(f"changepoint.{module}"), attr)
    args, kwargs = make_call(tmp_path)
    read = _TRACING.COUNTERS[span][1]
    assert read(args, kwargs, fn(*args, **kwargs)) == expected
