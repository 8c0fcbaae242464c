import importlib
import pkgutil

import pytest

import vqspectral

MODULES = sorted(info.name for info in pkgutil.iter_modules(vqspectral.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"vqspectral.{name}")
    assert not [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
