"""Shared machinery of the declarative spec layer.

Every spec dataclass in :mod:`repro.spec.specs` is **frozen** (usable as
a dict key, safe to share), **dict-round-trippable** (``from_dict(
to_dict(s)) == s``) and **canonically hashable** (``canonical_json`` is
key-order independent and defaulted-field complete, so its sha256 digest
is a stable identity defined by the data alone).  This module holds the
conversion helpers those guarantees rest on.

Parameter bags are stored internally as sorted tuples of ``(key,
value)`` pairs with every list frozen to a tuple -- the hashable normal
form -- and surface in ``to_dict`` as plain dicts/lists, the JSON normal
form.  Normalisation happens in ``__post_init__``, so two specs built
from differently-ordered inputs compare (and hash) equal.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Dict, Tuple

from repro.utils.cache import canonical_json

#: A normalised parameter bag: sorted, hashable ``(key, value)`` pairs.
Params = Tuple[Tuple[str, Any], ...]


def freeze(value: Any) -> Any:
    """The hashable normal form: lists/tuples to tuples, recursively."""
    if isinstance(value, dict):
        return tuple(sorted((str(k), freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    return value


def thaw(value: Any) -> Any:
    """The JSON normal form: tuples back to lists, recursively."""
    if isinstance(value, tuple):
        return [thaw(v) for v in value]
    return value


def freeze_params(params: Any) -> Params:
    """Normalise a parameter bag (dict or pair iterable) for storage."""
    if isinstance(params, dict):
        pairs = params.items()
    else:
        pairs = tuple(params)
    return tuple(sorted((str(k), freeze(v)) for k, v in pairs))


def thaw_params(params: Params) -> Dict[str, Any]:
    """A parameter bag as the plain keyword dict factories consume."""
    return {k: thaw(v) for k, v in params}


class SpecBase:
    """Mixin giving every spec dataclass one serialisation contract."""

    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON-able dict (every field present, lists not tuples)."""
        raise NotImplementedError

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SpecBase":
        """Rebuild from :meth:`to_dict` output (missing fields default).

        A key that is not a field is refused by name: dropped, a
        misspelt or outdated key would run its field at the default.
        Specs with nested specs rebuild those, then call this.
        """
        unknown = sorted(set(payload) - {f.name for f in
                                         dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown {cls.__name__} keys: {unknown}")
        return cls(**payload)

    def canonical_json(self) -> str:
        """Key-order-independent JSON encoding of :meth:`to_dict`."""
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        """sha256 of the canonical JSON: the spec's data-defined identity."""
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")).hexdigest()

    def replace(self, **changes) -> "SpecBase":
        return dataclasses.replace(self, **changes)


__all__ = [
    "Params",
    "SpecBase",
    "canonical_json",
    "freeze",
    "freeze_params",
    "thaw",
    "thaw_params",
]
