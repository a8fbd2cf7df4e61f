"""Central factory registries behind the declarative spec layer.

A :class:`Registry` maps names to factories.  Provider packages register
their factories **at import time** (``repro.mitigations`` and
``repro.core`` fill :data:`SCHEMES`, ``repro.workloads`` fills
:data:`WORKLOADS`, ``repro.dram.timing`` fills :data:`TIMINGS`); the
registry lazily imports its providers on first lookup, so merely
importing :mod:`repro.spec` never drags the whole simulator in, yet a
spec can always resolve its name.

Unknown names raise :class:`UnknownNameError` (a ``ValueError``) with a
did-you-mean suggestion and the full list of registered keys, so the CLI
and the engine share one source of truth for what exists -- they can
never diverge on scheme or workload construction again.
"""

from __future__ import annotations

import difflib
import importlib
import inspect
from typing import Any, Callable, Dict, Iterable, List, Optional


class UnknownNameError(ValueError):
    """A name not present in a registry (carries a did-you-mean hint)."""


class Registry:
    """A named factory table with lazy provider loading."""

    def __init__(self, kind: str, providers: Iterable[str] = ()):
        self.kind = kind
        self._providers = list(providers)
        self._entries: Dict[str, Callable[..., Any]] = {}
        self._loaded = False

    # -- registration (called by providers at import time) ---------------------

    def register(self, name: str,
                 factory: Optional[Callable[..., Any]] = None):
        """Register ``factory`` under ``name``; usable as a decorator.

        Re-registering a name with a different factory is an error --
        silent shadowing is exactly the divergence this layer removes.
        """
        def _add(fn: Callable[..., Any]) -> Callable[..., Any]:
            existing = self._entries.setdefault(name, fn)
            if existing is not fn:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered")
            return fn

        if factory is None:
            return _add
        return _add(factory)

    # -- lookup -----------------------------------------------------------------

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        for module in self._providers:
            importlib.import_module(module)

    def names(self) -> List[str]:
        """Every registered name, sorted."""
        self._ensure_loaded()
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        self._ensure_loaded()
        return name in self._entries

    def resolve(self, name: str) -> Callable[..., Any]:
        """The factory for ``name`` (did-you-mean error if unknown)."""
        self._ensure_loaded()
        try:
            return self._entries[name]
        except KeyError:
            hint = ""
            close = difflib.get_close_matches(name, self._entries, n=1)
            if close:
                hint = f" (did you mean {close[0]!r}?)"
            raise UnknownNameError(
                f"unknown {self.kind} {name!r}{hint}; "
                f"registered: {sorted(self._entries)}") from None

    def build(self, name: str, **params: Any) -> Any:
        """Instantiate ``name`` with keyword parameters."""
        return self.resolve(name)(**params)

    def accepts(self, name: str, *available: str) -> bool:
        """Whether ``name`` can be built from (a subset of) ``available``
        keyword arguments alone -- i.e. every required parameter of its
        factory is among them.  Lets the CLI offer exactly the schemes
        its flags can parameterise."""
        signature = inspect.signature(self.resolve(name))
        for param in signature.parameters.values():
            if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                continue
            if param.default is param.empty and param.name not in available:
                return False
        return True

    def buildable_params(self, name: str, params: Dict[str, Any]
                         ) -> Dict[str, Any]:
        """The subset of ``params`` the factory for ``name`` accepts."""
        signature = inspect.signature(self.resolve(name))
        accepted = {
            p.name for p in signature.parameters.values()
            if p.kind not in (p.VAR_POSITIONAL,)
        }
        if any(p.kind == p.VAR_KEYWORD
               for p in signature.parameters.values()):
            return dict(params)
        return {k: v for k, v in params.items() if k in accepted}


#: Mitigation factories.  ``repro.mitigations`` registers the baselines
#: and comparison schemes; ``repro.core`` registers the SHADOW variants.
SCHEMES = Registry("scheme", providers=("repro.mitigations", "repro.core"))

#: Workload-profile factories (each returns a tuple of profiles).
WORKLOADS = Registry("workload", providers=("repro.workloads",))

#: JEDEC timing parameter sets by speed-grade name.
TIMINGS = Registry("timing", providers=("repro.dram.timing",))

#: Graceful-degradation policies for detected-uncorrectable ECC errors
#: (``repro.faults`` registers retire / refresh-retry / panic / none).
FAULT_POLICIES = Registry("fault policy", providers=("repro.faults",))


__all__ = [
    "FAULT_POLICIES",
    "Registry",
    "SCHEMES",
    "TIMINGS",
    "UnknownNameError",
    "WORKLOADS",
]
