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


@pytest.mark.parametrize("module,path", [
    ("models", "PinningOracle.site_state"),
    ("lindblad", "solve_ivp"),
    ("lindblad", "spla.splu"),
])
def test_traced_lookup_names_resolve(module, path):
    # the traced bench run also wraps these names outside __all__
    obj = importlib.import_module(f"phaselearn.{module}")
    for attr in path.split("."):
        assert hasattr(obj, attr), f"phaselearn.{module}.{path} is missing"
        obj = getattr(obj, attr)
    assert callable(obj)
