"""The package's public API surface, as ``tools/public_api.json`` pins it.

The public surface is everything ``repro.__all__`` exports — classes with
their public methods/properties and signatures, functions with their
signatures. ``tests/pins.py`` renders ``snapshot()`` into the committed
file, so tier-1 fails on any unreviewed API change and a deliberate one
is a regenerated pin whose diff names each moved signature::

    PYTHONPATH=src python tests/pins.py --write
"""

from __future__ import annotations

import inspect
import re


def _signature(obj) -> str:
    try:
        text = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"
    # Callable defaults repr with their memory address; strip it so the
    # snapshot is stable across processes.
    return re.sub(r" at 0x[0-9a-fA-F]+", "", text)


def _describe(obj) -> dict:
    """A JSON-stable description of one exported object."""
    if inspect.isclass(obj):
        members = {}
        for name, member in vars(obj).items():
            if name.startswith("_") and name != "__init__":
                continue
            if isinstance(member, property):
                members[name] = "property"
            elif isinstance(member, (classmethod, staticmethod)):
                members[name] = (
                    f"{type(member).__name__}{_signature(member.__func__)}"
                )
            elif inspect.isfunction(member):
                members[name] = _signature(member)
        return {"kind": "class", "members": members}
    if callable(obj):
        return {"kind": "function", "signature": _signature(obj)}
    return {"kind": type(obj).__name__}


def snapshot() -> dict:
    """Derive the current public surface from the live package."""
    import repro

    surface = {
        name: _describe(getattr(repro, name))
        for name in sorted(set(repro.__all__) - {"__version__"})
    }
    return {"package": "repro", "version": repro.__version__, "surface": surface}
