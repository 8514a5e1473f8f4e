"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports its submodules' public names
with ``from .x import y`` loads every submodule, and everything those
import, as soon as any one name is needed.  :func:`lazy_exports` keeps
the package's public surface but imports a submodule only when one of
its names is first read, so a process pays for the layers it runs:
``repro serve`` never loads the router or the load generator, and the
batch engine never loads numpy.

The package's module object becomes a :class:`_LazyPackage`, whose
``__getattr__`` and ``__dir__`` behave as PEP 562's module-level hooks
do; its ``__setattr__`` covers the one case those hooks cannot, an
export named after its own submodule.  :class:`LazyRegistry` does the
same for a name-to-class registry: listing its names imports nothing,
reading an entry imports that entry's module.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from types import ModuleType
from typing import Iterator, Sequence

__all__ = ["LazyRegistry", "lazy_exports"]


class _LazyPackage(ModuleType):
    """A package module whose exports are imported on first access."""

    _lazy_sources: dict[str, str]

    def __getattr__(self, name: str):
        # only reached when normal lookup fails
        try:
            submodule = self._lazy_sources[name]
        except KeyError:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}"
            ) from None
        module = f"{self.__name__}.{submodule}"
        # __import__ rather than importlib.import_module: only the
        # former is reported by ``python -X importtime``
        __import__(module)
        value = getattr(sys.modules[module], name)
        setattr(self, name, value)  # later reads skip __getattr__
        return value

    def __setattr__(self, name: str, value) -> None:
        # the import system binds each loaded submodule on its package;
        # an export named after its own submodule (repro.service.loadgen)
        # keeps pointing at the export, as an eager
        # ``from .loadgen import loadgen`` left it
        if (
            isinstance(value, ModuleType)
            and self._lazy_sources.get(name) == name
            and value.__name__ == f"{self.__name__}.{name}"
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)

    def __dir__(self) -> list[str]:
        return sorted(set(super().__dir__()) | set(self._lazy_sources))


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]) -> list[str]:
    """Serve ``package``'s public names from its submodules on demand.

    ``exports`` maps each submodule (relative name, no dot) to the
    names it provides.  Call once, from the package ``__init__``, with
    ``__name__``; the return value is the package's ``__all__``.  A
    name listed twice raises ``ValueError``.
    """
    sources: dict[str, str] = {}
    for sub, names in exports.items():
        for name in names:
            if name in sources:
                raise ValueError(
                    f"{name!r} is exported by both {package}.{sources[name]} "
                    f"and {package}.{sub}"
                )
            sources[name] = sub
    module = sys.modules[package]
    module._lazy_sources = sources
    module.__class__ = _LazyPackage
    return list(sources)


class LazyRegistry(Mapping):
    """A read-only ``name -> object`` mapping that imports on first read.

    ``entries`` maps each name, in order, to ``"submodule:attribute"``
    relative to ``package``.  Iterating, ``len`` and ``in`` see the
    names only; ``registry[name]`` imports the entry's submodule and
    returns the attribute, so a process that reads one entry loads one
    module.
    """

    def __init__(self, package: str, entries: Mapping[str, str]):
        self._package = package
        self._entries = dict(entries)

    def __getitem__(self, name: str):
        submodule, _, attribute = self._entries[name].partition(":")
        module = f"{self._package}.{submodule}"
        __import__(module)  # not importlib: see _LazyPackage.__getattr__
        return getattr(sys.modules[module], attribute)

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
