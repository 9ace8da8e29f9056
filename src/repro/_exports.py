"""Package exports that load on first use (PEP 562).

Each package ``__init__`` hands :func:`lazy_exports` one table mapping
each defining module to the names the package re-exports from it.
Importing a package then imports none of its modules: a name's module
is imported when the name is first read, and the value is stored in
the package namespace, so later reads never reach ``__getattr__``.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for the package ``package``.

    A submodule that is not in ``table`` also resolves on first read,
    so ``import repro; repro.runs.execute_run`` works.
    """
    namespace = vars(sys.modules[package])
    owners = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name: str):
        owner = owners.get(name)
        if owner is not None:
            value = namespace[name] = getattr(import_module(owner), name)
            return value
        try:
            return import_module(f"{package}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{name}":
                raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owners.keys())

    return __getattr__, __dir__, list(owners)
