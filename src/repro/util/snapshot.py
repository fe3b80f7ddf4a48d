"""Pickled snapshots whose restored instances read as fast as built ones.

:func:`dumps` pickles an object graph — a bootstrapped network and its
scenario builder (:func:`repro.workloads.scenario.shared_bootstraps`) —
for ``pickle.loads`` to restore. The default protocol restores an instance
by updating its ``__dict__``; on CPython 3.11 and 3.12 that leaves the
attributes in a materialized dict instead of the inline values a
constructed instance keeps, so every attribute read on a restored network
takes a slower path (a depth-1 sweep's runs after the bootstrap took about
a quarter longer) and each instance is larger. :func:`dumps` has
``pickle.loads`` set a plain instance's attributes one by one instead,
which keeps them inline. Instances of classes with their own pickling, a
custom ``__new__`` or non-empty ``__slots__`` pickle as they always do.
"""

from __future__ import annotations

import copyreg
import io
import pickle
from typing import Any, Dict

__all__ = ["dumps"]

_set = object.__setattr__


def dumps(obj: Any) -> bytes:
    """``pickle.dumps(obj)``, with plain instances restored attribute by
    attribute."""
    buffer = io.BytesIO()
    _Pickler(buffer, pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


class _Pickler(pickle.Pickler):
    """Reduces a plain instance to its class and attribute dict, restored
    by :func:`_restore`."""

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        #: class -> whether its instances are plain (:func:`_plain`).
        self._plain: Dict[type, bool] = {}

    def reducer_override(self, obj: Any) -> Any:
        cls = type(obj)
        plain = self._plain.get(cls)
        if plain is None:
            plain = self._plain[cls] = _plain(cls)
        if not plain:
            return NotImplemented
        return copyreg.__newobj__, (cls,), obj.__dict__, None, None, _restore


def _plain(cls: type) -> bool:
    """Whether instances of ``cls`` hold their whole state in a
    ``__dict__`` and pickle by the default protocol."""
    return (
        cls.__dictoffset__ != 0
        and cls.__new__ is object.__new__
        and cls.__reduce_ex__ is object.__reduce_ex__
        and cls.__reduce__ is object.__reduce__
        and getattr(cls, "__getstate__", None)
        in (None, getattr(object, "__getstate__", None))
        and not hasattr(cls, "__setstate__")
        and not any(vars(base).get("__slots__") for base in cls.__mro__)
    )


def _restore(obj: Any, state: Dict[str, Any]) -> None:
    """Set ``obj``'s attributes from ``state`` (frozen dataclasses too)."""
    for name, value in state.items():
        _set(obj, name, value)
