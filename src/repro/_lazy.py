"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports a whole subsystem imports every
module of it as soon as any one of them is imported, because Python
runs the package ``__init__`` first.  :func:`lazy_exports` gives such a
package a module-level ``__getattr__`` and ``__dir__`` instead: a
re-exported name imports its submodule when it is first read, so
importing one module of a package loads that module and what it
imports, nothing more.

Nothing is cached in the package namespace.  Every read resolves
through the submodule, so the package always answers with the
submodule's current binding.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(package: str, namespace: Dict[str, Any],
                 exports: Dict[str, Tuple[str, ...]]
                 ) -> Tuple[List[str], Callable[[str], Any],
                            Callable[[], List[str]]]:
    """``(names, __getattr__, __dir__)`` for the package ``package``.

    ``exports`` maps each relative submodule name (``".schedule"``) to
    the names the package re-exports from it; a name equal to the
    submodule's own name re-exports the submodule itself.
    ``namespace`` is the package's ``globals()``, which ``__dir__``
    lists beside the lazy names.  An unknown name raises
    :class:`AttributeError`, as for any module.
    """
    where = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        sub = import_module(module, package)
        return sub if module == "." + name else getattr(sub, name)

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return list(where), __getattr__, __dir__
