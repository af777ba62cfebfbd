"""Lazy package namespaces (PEP 562).

A package ``__init__`` that only re-exports names lists each name once,
in a ``{submodule: names}`` table, and builds its namespace with
:func:`lazy_exports`.  A name's submodule is imported on first access,
so a command loads only the modules it runs.
"""

from __future__ import annotations

import importlib
from typing import Dict, Sequence


def lazy_exports(namespace: dict, table: Dict[str, Sequence[str]]):
    """``(__getattr__, __dir__, __all__)`` for the package whose globals
    are ``namespace``.

    ``table`` maps a module, relative to the package as in a ``from``
    import (``".ga"``, ``"..codelets.measurement"``), to the names the
    package exports from it.  ``__getattr__`` imports that module and
    caches the value in ``namespace``; a name no row lists is tried as a
    submodule (``repro.core.clustering``), else raises
    :class:`AttributeError`.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted(set(namespace) | set(origin))

    return (__getattr__, __dir__,
            [name for names in table.values() for name in names])
