"""Package surfaces that import a submodule on the first use of its names.

A package ``__init__`` whose re-exports cross layers declares a
``{name: submodule}`` table and installs ``__getattr__ = lazy_exports(
__name__, TABLE)`` (PEP 562).  The first access to a name imports its
submodule and binds the value into the package, so every later access is an
ordinary attribute lookup.  A name outside the table that names a submodule
imports it, as an eager ``__init__`` would have done; any other name is an
``AttributeError``.  A process therefore loads only the layers it uses.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict[str, str]):
    """The module ``__getattr__`` of ``package`` over ``table``."""
    module = sys.modules[package]

    def __getattr__(name: str):
        submodule = table.get(name)
        if submodule is None:
            if not name.startswith("__"):
                try:
                    return importlib.import_module(f"{package}.{name}")
                except ModuleNotFoundError as exc:
                    if exc.name != f"{package}.{name}":
                        raise
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        setattr(module, name, value)
        return value

    return __getattr__
