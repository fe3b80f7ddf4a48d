"""RELCAN — lazy two-phase reliable broadcast.

From [18]: eager diffusion pays its (small) echo cost on *every* message.
RELCAN defers that cost to the failure case: the sender broadcasts the
message and, upon confirmation of its own transmission (``can-data.cnf``),
broadcasts a short CONFIRM control message (a remote frame, clusterable).
Recipients buffer the message and deliver it when the CONFIRM arrives — at
that point CAN's retry mechanism guarantees every correct node has the
message. If the CONFIRM does not arrive within the protocol timeout (sender
crashed mid-broadcast, possibly leaving an inconsistent omission behind),
the recipients that *do* hold the message fall back to eager diffusion:
retransmit it, then deliver.

Failure-free cost: one data frame + one clustered remote frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional

from repro.can.driver import CanStandardLayer
from repro.can.identifiers import MessageId, MessageType
from repro.sim.timers import Alarm, TimerService

DeliverCallback = Callable[[int, int, bytes], None]

#: ``ref`` namespace split: CONFIRM control messages reuse the message ref.
_CONFIRM = MessageType.BCTRL


@dataclass
class _PendingMessage:
    data: bytes
    delivered: bool = False
    alarm: Optional[Alarm] = None
    echoed: bool = False


class Relcan:
    """Per-node RELCAN protocol entity.

    Args:
        layer: the node's CAN standard layer.
        timers: the node's timer service.
        confirm_timeout: how long a recipient waits for the sender's
            CONFIRM before falling back to eager diffusion (must exceed the
            worst-case transmission delay ``Ttd``).
    """

    def __init__(
        self,
        layer: CanStandardLayer,
        timers: TimerService,
        confirm_timeout: int,
        mtype: MessageType = MessageType.DATA,
    ) -> None:
        self._layer = layer
        self._timers = timers
        self._timeout = confirm_timeout
        self._mtype = mtype
        self._pending: Dict[MessageId, _PendingMessage] = {}
        self._deliver: Optional[DeliverCallback] = None
        self._next_ref = 0
        layer.add_data_ind(self._on_data_ind, mtype=mtype)
        layer.add_data_cnf(self._on_data_cnf, mtype=mtype)
        layer.add_rtr_ind(self._on_confirm, mtype=_CONFIRM)

    def on_deliver(self, callback: DeliverCallback) -> None:
        """Register the upper-layer delivery callback ``(sender, ref, data)``."""
        self._deliver = callback

    def broadcast(self, data: bytes) -> int:
        """Reliably broadcast ``data``; returns the message reference."""
        ref = self._next_ref
        self._next_ref += 1
        mid = MessageId(self._mtype, node=self._layer.node_id, ref=ref)
        self._layer.data_req(mid, data)
        return ref

    # -- phase 1: the message ---------------------------------------------------

    def _on_data_ind(self, mid: MessageId, data: bytes) -> None:
        entry = self._pending.get(mid)
        if entry is None:
            entry = _PendingMessage(data=data)
            self._pending[mid] = entry
            entry.alarm = self._timers.start_alarm(
                self._timeout, partial(self._on_timeout, mid)
            )
        else:
            entry.data = data

    def _on_data_cnf(self, mid: MessageId) -> None:
        # Our own message went out; issue the confirmation (phase 2).
        self._layer.rtr_req(MessageId(_CONFIRM, node=mid.node, ref=mid.ref))

    # -- phase 2: the confirmation -------------------------------------------------

    def _on_confirm(self, confirm_mid: MessageId) -> None:
        mid = MessageId(self._mtype, node=confirm_mid.node, ref=confirm_mid.ref)
        entry = self._pending.get(mid)
        if entry is None or entry.delivered:
            return
        self._timers.cancel_alarm(entry.alarm)
        self._deliver_once(mid, entry)

    # -- failure fallback: eager diffusion -----------------------------------------

    def _on_timeout(self, mid: MessageId) -> None:
        entry = self._pending.get(mid)
        if entry is None or entry.delivered:
            return
        # Sender silent: diffuse the buffered message so nodes hit by an
        # inconsistent omission receive it, then deliver locally.
        if not entry.echoed and not self._layer.has_pending(mid):
            entry.echoed = True
            self._layer.data_req(mid, entry.data)
        self._deliver_once(mid, entry)

    def _deliver_once(self, mid: MessageId, entry: _PendingMessage) -> None:
        entry.delivered = True
        if self._deliver is not None:
            self._deliver(mid.node, mid.ref, entry.data)
