"""SWIM stack assembly: one node and the backend factory.

:class:`SwimNode` is :class:`~repro.core.stack.MembershipNode` — the same
CAN controller and standard layer underneath, the same application-traffic
and fault-scripting API on top as :class:`~repro.core.stack.CanelyNode` —
with :class:`~repro.swim.protocol.SwimProtocol` as its protocol suite.
:class:`SwimBackend` is the :class:`~repro.core.backend.MembershipBackend`
implementation that lets :class:`~repro.core.stack.CanelyNetwork` build
SWIM populations with ``backend="swim"``.
"""

from __future__ import annotations

from typing import Dict

from repro.core.backend import MembershipBackend
from repro.core.stack import MembershipNode
from repro.core.views import MembershipView
from repro.errors import ConfigurationError
from repro.swim.config import SwimConfig
from repro.swim.protocol import SwimProtocol


class SwimBackend(MembershipBackend):
    """The SWIM stack behind the backend contract."""

    name = "swim"
    critical_path = False

    def __init__(self, node: SwimNode) -> None:
        self._node = node

    @classmethod
    def default_config(cls) -> SwimConfig:
        return SwimConfig()

    @classmethod
    def coerce_config(cls, config):
        if config is None:
            return SwimConfig()
        if isinstance(config, SwimConfig):
            return config
        if hasattr(config, "thb") and hasattr(config, "ttd"):
            return SwimConfig.from_canely(config)
        raise ConfigurationError(
            f"cannot derive a SwimConfig from {type(config).__name__}"
        )

    @classmethod
    def build_node(cls, node_id, sim, bus, config, *, layer=None,
                   timer_drift=0.0) -> SwimNode:
        return SwimNode(
            node_id, sim, bus, config, layer=layer, timer_drift=timer_drift
        )

    def join(self) -> None:
        self._node.protocol.join()

    def leave(self) -> None:
        self._node.protocol.leave()

    def view(self) -> MembershipView:
        return self._node.protocol.view()

    @property
    def is_member(self) -> bool:
        return self._node.protocol.is_member

    def on_change(self, callback) -> None:
        self._node.protocol.on_change(callback)

    def halt(self) -> None:
        self._node.protocol.halt()

    def reset(self) -> None:
        self._node.protocol.reset()

    def metrics(self) -> Dict[str, int]:
        protocol = self._node.protocol
        return {
            "view_round": protocol.view().round_index,
            "heartbeats_sent": protocol.heartbeats_sent,
            "suspicions": protocol.suspicions,
            "refutes": protocol.refutes,
            "removals": protocol.removals,
        }


class SwimNode(MembershipNode):
    """One SWIM node: the shell plus the SWIM protocol."""

    backend_cls = SwimBackend

    def _build_protocols(self) -> None:
        self.protocol = SwimProtocol(
            self.layer, self.timers, self._sim, self.config
        )
