import functools
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import vqspectral

MODULES = sorted(info.name for info in pkgutil.iter_modules(vqspectral.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"vqspectral.{name}")
    assert not [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]


def _traced_table():
    """The (metric, module, attribute) table the benchmark's tracer wraps."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "harness.py"
    spec = importlib.util.spec_from_file_location("perfbench_harness", path)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return harness.TRACED


@pytest.mark.parametrize("metric, module, attr", _traced_table())
def test_every_traced_function_resolves(metric, module, attr):
    # a rename the benchmark's trace table misses fails here, not only in the benchmark
    owner = importlib.import_module(f"vqspectral.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), owner)), metric
