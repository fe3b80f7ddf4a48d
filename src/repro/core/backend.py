"""The backend-neutral membership contract.

The paper's upper-layer service interface (Fig. 5) is a small set of
primitives — ``msh-can.req(JOIN/LEAVE/Get Membership View)`` and the
``msh-can.nty`` change notification — that say nothing about *how* the
view is maintained. :class:`MembershipBackend` makes that contract
explicit so rival detection/membership stacks can run behind the same
node API and be compared head-to-head:

* :class:`CanelyBackend` — the paper's stack (FDA + RHA + bounded-delay
  failure detection + site membership), a pure re-wiring of
  :class:`~repro.core.stack.CanelyNode`. Golden-trace pinned: routing
  the node API through the adapter changes nothing observable.
* :class:`~repro.swim.SwimBackend` — a SWIM-style heartbeat/suspicion
  detector over the same CAN controller and standard layer.

Backends play two roles, mirrored in the class:

* **factory** (classmethods): ``default_config`` / ``coerce_config`` /
  ``build_node`` let :class:`~repro.core.stack.CanelyNetwork` and the
  workload/campaign/check layers construct nodes without naming a
  concrete stack;
* **per-node service surface** (instance methods): the ``msh-can``
  request/notify primitives plus the lifecycle (``halt``/``reset``) and
  observability (``metrics``/``describe``) hooks shared by analysis.

Register additional backends with :func:`register_backend`; resolve a
name (or pass a class through) with :func:`resolve_backend`.
"""

from __future__ import annotations

import abc
from typing import Callable, ClassVar, Dict, Type

from repro.core.views import MembershipChange, MembershipView
from repro.errors import ConfigurationError

ChangeCallback = Callable[[MembershipChange], None]


class MembershipBackend(abc.ABC):
    """One node's membership service, behind the ``msh-can`` contract.

    Instances wrap a single node's protocol entity; the classmethods act
    as the stack factory. Subclasses must set :attr:`name` (the registry
    key and report label) and may override :attr:`critical_path` when the
    backend emits the span structure
    :func:`repro.obs.critical_path.detection_path` consumes.
    """

    #: Registry key and report label ("canely", "swim", ...).
    name: ClassVar[str] = ""
    #: True when the backend's spans support detection-path decomposition.
    critical_path: ClassVar[bool] = False

    # -- factory surface ---------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def default_config(cls):
        """The configuration used when the caller passes ``None``."""

    @classmethod
    def coerce_config(cls, config):
        """Adapt ``config`` (possibly ``None`` or a rival backend's
        configuration) into this backend's native configuration type."""
        return cls.default_config() if config is None else config

    @classmethod
    @abc.abstractmethod
    def build_node(cls, node_id, sim, bus, config, *, layer=None,
                   timer_drift=0.0):
        """Construct one node of this backend's stack attached to ``bus``."""

    # -- msh-can.req / .nty service surface --------------------------------

    @abc.abstractmethod
    def join(self) -> None:
        """``msh-can.req(JOIN)``: ask to enter the membership view."""

    @abc.abstractmethod
    def leave(self) -> None:
        """``msh-can.req(LEAVE)``: ask to be withdrawn from the view."""

    @abc.abstractmethod
    def view(self) -> MembershipView:
        """``msh-can.req(Get Membership View)``: the current view."""

    @property
    @abc.abstractmethod
    def is_member(self) -> bool:
        """True while the local node is a full member."""

    @abc.abstractmethod
    def on_change(self, callback: ChangeCallback) -> None:
        """Register a ``msh-can.nty`` change listener (delivery order =
        registration order)."""

    # -- lifecycle hooks ---------------------------------------------------

    @abc.abstractmethod
    def halt(self) -> None:
        """Stop all protocol activity without touching state (crash)."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget all protocol state (reboot); idempotent."""

    # -- observability hooks -----------------------------------------------

    def metrics(self) -> Dict[str, int]:
        """Per-node protocol counters for diagnostics and comparison."""
        return {}

    def describe(self) -> Dict[str, object]:
        """Static description of the backend for reports."""
        return {"backend": self.name, "critical_path": self.critical_path}


class CanelyBackend(MembershipBackend):
    """The paper's stack behind the backend contract.

    A pure adapter over :class:`~repro.core.stack.CanelyNode`'s protocol
    entities — every method forwards to the exact call the node API made
    before the contract existed, so wrapped runs are bit-identical to the
    direct path (pinned by the golden-trace equivalence tests).
    """

    name = "canely"
    critical_path = True

    def __init__(self, node) -> None:
        self._node = node

    @classmethod
    def default_config(cls):
        from repro.core.config import CanelyConfig

        return CanelyConfig()

    @classmethod
    def build_node(cls, node_id, sim, bus, config, *, layer=None,
                   timer_drift=0.0):
        from repro.core.stack import CanelyNode

        return CanelyNode(
            node_id,
            sim,
            bus,
            config,
            layer=layer,
            timer_drift=timer_drift,
            _from_backend=True,
        )

    def join(self) -> None:
        self._node.membership.join()

    def leave(self) -> None:
        self._node.membership.leave()

    def view(self) -> MembershipView:
        return self._node.membership.view()

    @property
    def is_member(self) -> bool:
        return self._node.membership.is_member

    def on_change(self, callback: ChangeCallback) -> None:
        self._node.membership.on_change(callback)

    def halt(self) -> None:
        # The crash sequence of the pre-contract node API, in order.
        self._node.detector.reset()
        self._node.membership.halt()

    def reset(self) -> None:
        # The recover sequence of the pre-contract node API, in order.
        self._node.fda.reset_all()
        self._node.rha.reset()
        self._node.detector.reset()
        self._node.membership.reset()

    def metrics(self) -> Dict[str, int]:
        node = self._node
        return {
            "view_round": node.membership.view().round_index,
            "els_sent": node.detector.els_sent,
            "rha_executions": node.rha.executions,
            "rha_frames_sent": node.rha.frames_sent,
            "monitored_nodes": len(node.detector.monitored_nodes),
        }


#: name -> backend class. ``swim`` resolves lazily so importing the
#: contract does not drag the SWIM package in.
_REGISTRY: Dict[str, Type[MembershipBackend]] = {}


def register_backend(backend: Type[MembershipBackend]) -> None:
    """Add ``backend`` to the registry under its :attr:`name`.

    Re-registering the same class is a no-op; claiming an already-taken
    name with a different class is an error (names are report labels and
    CLI values — silent replacement would repoint them).
    """
    if not backend.name:
        raise ConfigurationError(f"backend {backend!r} has no name")
    taken = _REGISTRY.get(backend.name)
    if taken is not None and taken is not backend:
        raise ConfigurationError(
            f"backend name {backend.name!r} is already registered "
            f"to {taken.__name__}"
        )
    _REGISTRY[backend.name] = backend


register_backend(CanelyBackend)


def backend_names() -> list:
    """The registered backend names, sorted."""
    _load_builtin("swim")
    return sorted(_REGISTRY)


def _load_builtin(name: str) -> None:
    if name == "swim" and "swim" not in _REGISTRY:
        from repro.swim import SwimBackend

        register_backend(SwimBackend)


def resolve_backend(spec) -> Type[MembershipBackend]:
    """Resolve a backend name (or pass a backend class through).

    ``None`` resolves to :class:`CanelyBackend` — the seed stack.
    """
    if spec is None:
        return CanelyBackend
    if isinstance(spec, type) and issubclass(spec, MembershipBackend):
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


def monitors_supported(backend) -> bool:
    """True when the online invariant monitors can judge ``backend``.

    :mod:`repro.obs.monitors` encodes *CANELy's* guarantees (bounded
    detection, no duplicate failure-sign, round-synchronous agreement); a
    rival stack with different semantics would trip them on correct
    behaviour, so it is judged by the final-state check alone.
    """
    return issubclass(resolve_backend(backend), CanelyBackend)


def require_monitors(backend) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` unless
    :func:`monitors_supported` — the one refusal every layer that can
    attach monitors goes through."""
    if not monitors_supported(backend):
        raise ConfigurationError(
            "the online invariant monitors encode CANELy's guarantees; "
            f"they cannot judge the {resolve_backend(backend).name!r} "
            "backend (run it with monitors off)"
        )
