"""Lazy package re-exports (PEP 562).

Every ``repro`` package re-exports its public names from the modules
that define them.  Importing those modules eagerly would make
``import repro.<anything>`` load the whole simulator (and numpy), so a
package instead declares where each name lives and :func:`attach`
builds the module ``__getattr__``/``__dir__`` pair that imports the
defining module on first access::

    __getattr__, __dir__ = attach(__name__, {
        "repro.core.config": ("CoreConfig", "SystemConfig"),
        "repro.core.cluster": ("Cluster",),
    })

Any other public name that names a submodule imports it, so
``repro.sweep.cache`` after ``import repro`` still works as it did when
packages imported everything eagerly.  Resolved values are cached in
the package's namespace, so only the first access pays.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def attach(package: str, exports: dict[str, tuple[str, ...]],
           ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` re-exporting
    ``exports`` (defining module -> names)."""
    table = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str):
        missing = AttributeError(
            f"module {package!r} has no attribute {name!r}")
        if name in table:
            value = getattr(importlib.import_module(table[name]), name)
        elif name.startswith("_"):
            raise missing
        else:
            module = f"{package}.{name}"
            try:
                value = importlib.import_module(module)
            except ModuleNotFoundError as exc:
                if exc.name != module:
                    raise
                raise missing from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
