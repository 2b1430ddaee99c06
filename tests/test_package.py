import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def _package_env() -> dict:
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(phaselearn.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_import_loads_no_integrate_or_optimize():
    # scipy.integrate pulls in scipy.optimize, about 20 MB and 0.2 s of every
    # process's start; the package integrates with its own RK45 instead
    code = ("import sys, phaselearn, phaselearn.cli, phaselearn.experiment; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.integrate', 'scipy.optimize'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_package_env(), check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("config,code", [("pinning_steady.cfg", 0), ("missing.cfg", 2)])
def test_python_m_phaselearn_exits_with_the_cli_code(tmp_path, config, code):
    cfg = Path(__file__).parents[1] / "scripts" / "configs" / config
    out = subprocess.run([sys.executable, "-m", "phaselearn", "plan", "--config", str(cfg),
                          "--out", str(tmp_path)], capture_output=True, text=True,
                         env=_package_env())
    assert out.returncode == code, out.stderr
    assert (tmp_path / "plan.json").is_file() == (code == 0)


def _loaded_names(package_dir: Path) -> set[str]:
    """Every name and attribute the package's own code reads (AST Load)."""
    names = set()
    for path in package_dir.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_in_the_package():
    # a public name that only the tests read is API kept alive for the tests
    loaded = _loaded_names(Path(phaselearn.__file__).parent)
    unused = [f"{name}.{attr}" for name in MODULES
              for attr in getattr(importlib.import_module(f"phaselearn.{name}"), "__all__", ())
              if attr not in loaded]
    assert not unused, f"public names no package code reads: {unused}"


def test_every_stored_attribute_is_read_in_the_package():
    # an attribute a class stores on self that no package code reads as an
    # attribute is state kept alive for the tests
    stored, read = set(), set()
    for path in Path(phaselearn.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            stored |= {(f"{path.stem}.{cls.name}", node.attr) for node in ast.walk(cls)
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                       and isinstance(node.value, ast.Name) and node.value.id == "self"}
    unread = sorted(f"{owner}.{attr}" for owner, attr in stored if attr not in read)
    assert not unread, f"attributes stored on self that no package code reads: {unread}"


def test_every_definition_is_read_in_the_package():
    # a module-level function or class, or a method, that no package code reads
    # is dead or kept alive for the tests; dunder methods run by protocol
    package_dir = Path(phaselearn.__file__).parent
    loaded = _loaded_names(package_dir)
    defined = set()
    for path in package_dir.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.add((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                defined |= {(f"{path.stem}.{node.name}", item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))}
    unread = sorted(f"{owner}.{name}" for owner, name in defined if name not in loaded)
    assert not unread, f"definitions no package code reads: {unread}"
