"""Import boundaries: front doors load only what they use.

Package ``__init__`` files re-export lazily (``repro._lazy``), the API
imports its execution backends where it runs them, and the CLI imports
each command's heavy dependencies inside that command.  So importing a
front door, or answering a warm campaign from the result store, never
loads numpy or the simulator.  Each check runs in a fresh interpreter,
because this test process has long since imported everything.

The second half pins what laziness must not change: every exported
name is the very object its defining module holds, star imports work,
and the retired pre-1.5 shims stay gone.  Finally, no ``repro`` module
imports the test oracle (``tests/oracle/``).
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

import repro
from repro.api import Session, workload

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a front door or a warm campaign must leave unloaded.
HEAVY = ("numpy", "repro.core.cluster", "repro.eval.runner",
         "repro.system.system", "repro.serve.http",
         "repro.analytical.model")

_REPORT = ("import json, sys; print(json.dumps([m for m in {heavy!r} "
           "if m in sys.modules]))")


def _loaded_heavy(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; the heavy modules it left
    in ``sys.modules``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code + "\n" + _REPORT.format(heavy=HEAVY)],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ["repro.cli", "repro.api", "repro.sweep",
                                    "repro.eval.figures"])
def test_front_door_import_leaves_the_simulator_unloaded(module):
    assert _loaded_heavy(f"import {module}") == []


def test_warm_sweep_answers_without_the_simulator(tmp_path):
    store = tmp_path / "store"
    points = [workload("vecop", "baseline", n=16),
              workload("vecop", "chaining", n=16)]
    Session(cache=str(store)).map(points).raise_on_failure()
    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps({"name": "tiny", "kernels": ["vecop"],
                                "variants": ["baseline", "chaining"],
                                "ns": [16]}))
    out = tmp_path / "warm.json"
    code = ("from repro.cli import main\n"
            f"assert main(['sweep', '--spec', {str(spec)!r}, "
            f"'--cache-dir', {str(store)!r}, '--quiet', "
            f"'--json', {str(out)!r}]) == 0")
    assert _loaded_heavy(code) == []
    doc = json.loads(out.read_text())
    assert doc["points"] == doc["cached_count"] == 2


def test_serve_submit_validation_leaves_the_simulator_unloaded():
    code = ("from repro.serve.http import _parse_workloads\n"
            "_parse_workloads({'workload': {'kernel': 'vecop', "
            "'variant': 'baseline', 'n': 16}})\n"
            "try:\n"
            "    _parse_workloads({'workload': {'kernel': 'nope', "
            "'variant': 'baseline'}})\n"
            "except ValueError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('unknown kernel accepted')")
    assert _loaded_heavy(code) == ["repro.serve.http"]


# -- what laziness must not change ---------------------------------------


def _packages() -> list[types.ModuleType]:
    names = [info.name for info in pkgutil.iter_modules(repro.__path__,
                                                        "repro.")
             if info.ispkg]
    return [repro] + [importlib.import_module(name) for name in names]


def _held_by_defining_module(name: str, value) -> bool:
    if isinstance(value, types.ModuleType):
        return sys.modules.get(value.__name__) is value
    if isinstance(value, (type, types.FunctionType)):
        owner = sys.modules[value.__module__]
        return getattr(owner, value.__name__, None) is value
    # Constants: some non-package module defines the same object.
    return any(getattr(module, name, None) is value
               for module_name, module in list(sys.modules.items())
               if module_name.startswith("repro.") and module is not None
               and not hasattr(module, "__path__"))


@pytest.mark.parametrize("package", _packages(),
                         ids=lambda package: package.__name__)
def test_every_export_is_its_defining_modules_object(package):
    assert package.__all__, package.__name__
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        for name in package.__all__:
            value = getattr(package, name)
            if name == "__version__":
                continue
            assert _held_by_defining_module(name, value), \
                f"{package.__name__}.{name}"
            assert name in dir(package)


def test_star_imports_resolve_every_export():
    for package in _packages():
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        missing = set(package.__all__) - set(namespace)
        assert not missing, (package.__name__, missing)


def test_submodules_resolve_as_package_attributes():
    # As when every package imported its submodules eagerly.
    code = ("import repro\n"
            "assert repro.sweep.cache.ResultCache is "
            "repro.sweep.ResultCache")
    assert "repro.core.cluster" not in _loaded_heavy(code)
    with pytest.raises(AttributeError):
        repro.no_such_thing  # noqa: B018
    with pytest.raises(AttributeError):
        repro.api._private_name  # noqa: B018


@pytest.mark.parametrize("path, name", [
    ("repro", "Point"), ("repro.sweep", "Point"),
    ("repro.sweep.spec", "Point"), ("repro", "run_build"),
    ("repro", "run_stencil_variant"), ("repro", "run_system_stencil"),
    ("repro.eval.runner", "run_build"),
    ("repro.eval.system_runner", "run_system_stencil"),
    ("repro.sweep.runner", "_worker"),
])
def test_retired_shims_are_gone(path, name):
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(path), name)


def test_no_repro_module_imports_the_oracle():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] in ("oracle", "tests") for n in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
