"""The SWIM membership backend.

A rival failure-detection/membership stack behind the
:class:`~repro.core.stack.MembershipNode` contract: SWIM-style
heartbeat counters, incarnation numbers and a suspicion sub-protocol over
the same CAN controller and standard layer the CANELy suite uses. Built
for head-to-head comparison (``repro compare``); see
:mod:`repro.swim.protocol` for the protocol and its documented departures
from the paper's bounded-delay detector.
"""

from repro.swim.config import SwimConfig
from repro.swim.node import SwimNode
from repro.swim.protocol import SwimProtocol

__all__ = ["SwimConfig", "SwimNode", "SwimProtocol"]
