"""CAN message identifiers and the CANELy message control field (MID).

The paper (Section 5) defines the *message control field* carried in the CAN
identifier as: a **type** reference, an optional **reference number** and a
**node identifier**. We map it onto the 29-bit extended CAN identifier:

====  ======  =======================================================
bits  field   meaning
====  ======  =======================================================
28-24 type    message type; doubles as the major arbitration priority
23-8  ref     protocol-specific reference (e.g. #RHV for RHA signals)
7-0   node    sending / subject node identifier
====  ======  =======================================================

Because CAN arbitration favours numerically *lower* identifiers, the
enumeration order of :class:`MessageType` is the network-wide priority
order: failure signs (FDA) beat everything, application data yields to every
protocol message.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import FrameError

TYPE_BITS = 5
REF_BITS = 16
NODE_BITS = 8

MAX_TYPE = (1 << TYPE_BITS) - 1
MAX_REF = (1 << REF_BITS) - 1
MAX_NODE = (1 << NODE_BITS) - 1

#: Total identifier width (CAN 2.0B extended format).
IDENTIFIER_BITS = TYPE_BITS + REF_BITS + NODE_BITS


class MessageType(enum.IntEnum):
    """Protocol message types, ordered by decreasing bus priority."""

    #: Failure Detection Agreement failure-sign (remote frame).
    FDA = 0
    #: Explicit life-sign broadcast (remote frame).
    ELS = 1
    #: Reception History Agreement RHV signal (data frame).
    RHA = 2
    #: Membership join request (remote frame).
    JOIN = 3
    #: Membership leave request (remote frame).
    LEAVE = 4
    #: Clock synchronization resynchronization messages.
    CSYNC = 5
    #: Reliable-broadcast control traffic (RELCAN confirm, TOTCAN accept).
    BCTRL = 6
    #: Baseline network management (CAL node guarding / OSEK NM ring).
    NM = 7
    #: Process group membership announcements.
    GROUP = 8
    #: SWIM-style membership traffic (heartbeats, suspicions, verdicts)
    #: of the rival :mod:`repro.swim` backend — below every CANELy
    #: protocol message, above application data.
    SWIM = 9
    #: Application data (lowest protocol priority).
    DATA = 15


@dataclass(frozen=True)
class MessageId:
    """The CANELy message control field, ordered by bus priority.

    ``<`` (what ``sorted`` uses) compares the encoded identifiers, which is
    CAN arbitration priority: lower sorts first and wins the bus.
    """

    mtype: MessageType
    node: int = 0
    ref: int = 0

    def __post_init__(self) -> None:
        if not 0 <= int(self.mtype) <= MAX_TYPE:
            raise FrameError(f"message type out of range: {self.mtype}")
        if not 0 <= self.node <= MAX_NODE:
            raise FrameError(f"node id out of range: {self.node}")
        if not 0 <= self.ref <= MAX_REF:
            raise FrameError(f"ref out of range: {self.ref}")

    def __lt__(self, other: "MessageId") -> bool:
        if not isinstance(other, MessageId):
            return NotImplemented
        return self.encode() < other.encode()

    def encode(self) -> int:
        """Pack into the 29-bit extended CAN identifier."""
        return (
            (int(self.mtype) << (REF_BITS + NODE_BITS))
            | (self.ref << NODE_BITS)
            | self.node
        )

    @classmethod
    def decode(cls, identifier: int) -> "MessageId":
        """Unpack a 29-bit identifier produced by :meth:`encode`."""
        if not 0 <= identifier < (1 << IDENTIFIER_BITS):
            raise FrameError(f"identifier out of range: {identifier:#x}")
        mtype_raw = identifier >> (REF_BITS + NODE_BITS)
        try:
            mtype = MessageType(mtype_raw)
        except ValueError as exc:
            raise FrameError(f"unknown message type code {mtype_raw}") from exc
        ref = (identifier >> NODE_BITS) & MAX_REF
        node = identifier & MAX_NODE
        return cls(mtype=mtype, node=node, ref=ref)

    def __repr__(self) -> str:
        return f"MessageId({self.mtype.name}, node={self.node}, ref={self.ref})"
