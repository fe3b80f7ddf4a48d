"""The membership backend registry.

The paper's upper-layer service interface (Fig. 5) — ``msh-can.req(JOIN/
LEAVE/Get Membership View)`` and the ``msh-can.nty`` change notification —
is the abstract class :class:`~repro.core.stack.MembershipNode`: a backend
*is* a node class. This module maps names to those classes, so
:class:`~repro.core.stack.CanelyNetwork` and the workload/campaign/check
layers can build a population without naming a concrete stack:

* ``"canely"`` — :class:`~repro.core.stack.CanelyNode`, the paper's stack
  (FDA + RHA + bounded-delay failure detection + site membership);
* ``"swim"`` — :class:`~repro.swim.SwimNode`, a SWIM-style
  heartbeat/suspicion detector over the same CAN controller and standard
  layer.

Everything a backend is — configuration, protocol suite, the online
monitors that judge it (:meth:`~repro.core.stack.MembershipNode.monitors`)
— lives on its node class; this module decides nothing about it.
Register additional backends with :func:`register_backend`; resolve a
name (or pass a node class through) with :func:`resolve_backend`. The
built-ins load on first use, so importing the registry drags in neither
stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Type

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.core.stack import MembershipNode

#: name -> node class; the built-ins are added by :func:`_load_builtin`.
_REGISTRY: Dict[str, Type[MembershipNode]] = {}


def _load_builtin(name: str) -> None:
    # Fills the registry directly: going through register_backend would
    # recurse back here.
    if name in _REGISTRY:
        return
    if name == "canely":
        from repro.core.stack import CanelyNode

        _REGISTRY[name] = CanelyNode
    elif name == "swim":
        from repro.swim import SwimNode

        _REGISTRY[name] = SwimNode


def register_backend(backend: Type[MembershipNode]) -> None:
    """Add the node class ``backend`` to the registry under its ``name``.

    Re-registering the same class is a no-op; claiming an already-taken
    name with a different class is an error (names are report labels and
    CLI values — silent replacement would repoint them). A built-in's name
    is taken even before the built-in is first used.
    """
    if not backend.name:
        raise ConfigurationError(f"backend {backend!r} has no name")
    _load_builtin(backend.name)
    taken = _REGISTRY.get(backend.name)
    if taken is not None and taken is not backend:
        raise ConfigurationError(
            f"backend name {backend.name!r} is already registered "
            f"to {taken.__name__}"
        )
    _REGISTRY[backend.name] = backend


def backend_names() -> list:
    """The registered backend names, sorted."""
    _load_builtin("canely")
    _load_builtin("swim")
    return sorted(_REGISTRY)


def resolve_backend(spec) -> Type[MembershipNode]:
    """Resolve a backend name (or pass a node class through).

    ``None`` resolves to :class:`~repro.core.stack.CanelyNode` — the seed
    stack.
    """
    from repro.core.stack import MembershipNode

    if spec is None:
        spec = "canely"
    if isinstance(spec, type) and issubclass(spec, MembershipNode):
        return spec
    if isinstance(spec, str):
        _load_builtin(spec)
        try:
            return _REGISTRY[spec]
        except KeyError:
            raise ConfigurationError(
                f"unknown membership backend {spec!r}; "
                f"registered: {backend_names()}"
            ) from None
    raise ConfigurationError(f"not a membership backend: {spec!r}")

