"""Lazy package re-exports (PEP 562), the one helper every package uses.

A package keeps its ``__all__`` and maps each public name to the
submodule that defines it; the submodule is imported when the name is
first read, and the value is then cached in the package's globals.
Importing a package thus runs only its own ``__init__``, so each
process loads just the modules it uses.
"""

from __future__ import annotations

import importlib

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict, submodules: dict[str, tuple[str, ...]]):
    """The ``(__getattr__, __dir__)`` pair of a package whose globals are
    ``namespace``, re-exporting the names ``submodules`` maps each
    relative submodule name (``".costs"``) to."""
    package = namespace["__name__"]
    owners = {name: module for module, names in submodules.items() for name in names}

    def __getattr__(name: str):
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module, package), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(namespace.get("__all__", ())))

    return __getattr__, __dir__
