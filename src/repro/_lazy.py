"""Lazy package re-exports (PEP 562).

A package lists each public name with the submodule that defines it and
installs the pair of hooks :func:`lazy_exports` returns::

    _EXPORTS = {"ric": "measure", ...}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

``from package import name`` then imports only that name's submodule, on
first use, and caches the value on the package.

A public name must not also be a submodule's name: importing a submodule
sets the package attribute of that name to the module, and ``__getattr__``
runs only for missing attributes, so the module would shadow the export
depending on import order.  Bind such a name eagerly instead.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of *package*,
    whose public names map to submodules as in *exports*.

    Raises :class:`ValueError` if a public name is also the name of a
    submodule in *exports*.
    """
    shadowed = sorted(set(exports) & set(exports.values()))
    if shadowed:
        raise ValueError(
            f"{package}: lazy exports named like a submodule: {shadowed}"
        )

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = importlib.import_module(f"{package}.{exports[name]}")
        value = getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
