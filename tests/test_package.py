import importlib
import pkgutil

import pytest

import phaselearn

MODULES = sorted(info.name for info in pkgutil.iter_modules(phaselearn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # the traced bench run looks up every __all__ entry, so a stale one breaks it
    module = importlib.import_module(f"phaselearn.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"phaselearn.{name}.__all__ names missing {missing}"
