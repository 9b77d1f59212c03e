"""Every lazily re-exported package name resolves.

Packages re-export their public names through
:func:`repro._lazy.lazy_exports`, which imports a name's submodule when
the name is first read.  A stale map entry (a renamed function, a moved
class) would otherwise fail only when some caller first reads it.
"""

import importlib
import pkgutil

import pytest

import repro


def _lazy_packages() -> list[str]:
    """Every ``repro`` package whose ``__getattr__`` is the shared helper's."""
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    hooks = [getattr(importlib.import_module(name), "__getattr__", None) for name in names]
    return [
        name
        for name, hook in zip(names, hooks)
        if getattr(hook, "__module__", "") == "repro._lazy"
    ]


PACKAGES = _lazy_packages()


def test_the_serving_packages_reexport_lazily():
    assert set(PACKAGES) >= {
        "repro",
        "repro.core",
        "repro.distributions",
        "repro.engine",
        "repro.service",
        "repro.simulation",
        "repro.validation",
    }


@pytest.mark.parametrize("name", PACKAGES)
def test_every_lazy_export_resolves(name):
    package = importlib.import_module(name)
    exports = set(package.__all__)
    assert exports <= set(dir(package))
    for export in sorted(exports):
        getattr(package, export)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(namespace) - {"__builtins__"} == exports


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        repro.core.no_such_name  # noqa: B018
