"""SWIM stack assembly: one node.

:class:`SwimNode` is a :class:`~repro.core.stack.MembershipNode` — the same
CAN controller and standard layer underneath, the same application-traffic
and fault-scripting API on top as :class:`~repro.core.stack.CanelyNode` —
with :class:`~repro.swim.protocol.SwimProtocol` as its protocol suite.
Registered as ``"swim"``, it is what
:class:`~repro.core.stack.CanelyNetwork` builds with ``backend="swim"``.
"""

from __future__ import annotations

from typing import Dict

from repro.core.stack import MembershipNode
from repro.core.views import MembershipView
from repro.errors import ConfigurationError
from repro.swim.config import SwimConfig
from repro.swim.protocol import SwimProtocol


class SwimNode(MembershipNode):
    """One SWIM node: the shell plus the SWIM protocol."""

    name = "swim"

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

    def _build_protocols(self) -> None:
        self.protocol = SwimProtocol(
            self.layer, self.timers, self._sim, self.config
        )

    def join(self) -> None:
        self.protocol.join()

    def leave(self) -> None:
        self.protocol.leave()

    def view(self) -> MembershipView:
        return self.protocol.view()

    def on_membership_change(self, callback) -> None:
        self.protocol.on_change(callback)

    @property
    def is_member(self) -> bool:
        return self.protocol.is_member

    def halt(self) -> None:
        self.protocol.halt()

    def reset(self) -> None:
        self.protocol.reset()

    def metrics(self) -> Dict[str, int]:
        protocol = self.protocol
        return {
            "view_round": protocol.view().round_index,
            "heartbeats_sent": protocol.heartbeats_sent,
            "suspicions": protocol.suspicions,
            "refutes": protocol.refutes,
            "removals": protocol.removals,
        }
