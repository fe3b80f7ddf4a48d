"""TOTCAN — totally ordered atomic broadcast.

From [18]: a two-phase protocol. The sender broadcasts the message, then —
once its own transmission is confirmed — broadcasts an ACCEPT control
message. Recipients buffer messages and only deliver *accepted* ones, in a
system-wide total order, after a stability delay that covers the worst-case
(j-bounded) diffusion of the ACCEPT itself. A message whose ACCEPT never
appears (sender crashed mid-protocol) is discarded by everyone: atomicity.

Ordering adaptation (documented in DESIGN.md): the paper's TOTCAN orders by
position of the accept on the bus. A recipient that missed the first copy of
an ACCEPT (inconsistent omission) cannot observe that position, so our
ACCEPT is a small *data* frame carrying an order tag — the sender's count of
accepts it has observed bus-wide. All correct nodes agree on the tag once
the accept set is stable, and ties (concurrent accepts with the same tag)
break deterministically by sender identifier. ACCEPTs are themselves
eagerly diffused, so agreement on the accept set holds within the stability
delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.can.driver import CanStandardLayer
from repro.can.identifiers import MessageId, MessageType
from repro.sim.kernel import Simulator
from repro.sim.timers import TimerService

DeliverCallback = Callable[[int, int, bytes], None]

_ACCEPT = MessageType.BCTRL


@dataclass
class _Buffered:
    data: Optional[bytes] = None
    accept_tag: Optional[int] = None
    scheduled: bool = False
    delivered: bool = False
    discard_alarm: object = None


class Totcan:
    """Per-node TOTCAN protocol entity.

    Args:
        layer: the node's CAN standard layer.
        timers: the node's timer service.
        sim: the simulator (for the stability delay).
        stability_delay: how long after the first local ACCEPT sighting a
            message waits before delivery; must cover the worst-case accept
            diffusion time.
        discard_timeout: how long an unaccepted message is buffered before
            being discarded (atomicity for crashed senders).
    """

    def __init__(
        self,
        layer: CanStandardLayer,
        timers: TimerService,
        sim: Simulator,
        stability_delay: int,
        discard_timeout: int,
        inconsistent_degree: int = 2,
        mtype: MessageType = MessageType.DATA,
    ) -> None:
        self._layer = layer
        self._timers = timers
        self._sim = sim
        self._stability = stability_delay
        self._discard_timeout = discard_timeout
        self._j = inconsistent_degree
        self._mtype = mtype
        self._buffered: Dict[Tuple[int, int], _Buffered] = {}
        self._accept_ndup: Dict[MessageId, int] = {}
        self._accepts_observed = 0
        self._delivery_queue: List[Tuple[int, int, int, int]] = []
        self._deliver: Optional[DeliverCallback] = None
        self._delivered_count = 0
        self._next_ref = 0
        layer.add_data_ind(self._on_data_ind, mtype=mtype)
        layer.add_data_cnf(self._on_data_cnf, mtype=mtype)
        layer.add_data_ind(self._on_accept, mtype=_ACCEPT)

    def on_deliver(self, callback: DeliverCallback) -> None:
        """Register the delivery callback ``(sender, ref, data)``.

        Deliveries respect the total order at every correct node.
        """
        self._deliver = callback

    def broadcast(self, data: bytes) -> int:
        """Atomically broadcast ``data``; returns the message reference."""
        ref = self._next_ref
        self._next_ref += 1
        mid = MessageId(self._mtype, node=self._layer.node_id, ref=ref)
        self._layer.data_req(mid, data)
        return ref

    # -- phase 1: the message -----------------------------------------------------

    def _key(self, node: int, ref: int) -> Tuple[int, int]:
        return (node, ref)

    def _entry(self, node: int, ref: int) -> _Buffered:
        key = self._key(node, ref)
        if key not in self._buffered:
            entry = _Buffered()
            entry.discard_alarm = self._timers.start_alarm(
                self._discard_timeout, partial(self._on_discard, key)
            )
            self._buffered[key] = entry
        return self._buffered[key]

    def _on_data_ind(self, mid: MessageId, data: bytes) -> None:
        entry = self._entry(mid.node, mid.ref)
        if entry.data is None:
            entry.data = data
            self._try_schedule(mid.node, mid.ref, entry)

    def _on_data_cnf(self, mid: MessageId) -> None:
        # Phase 2: accept. The tag is our count of accepts seen bus-wide,
        # which every correct node tracks identically (within stability).
        tag = self._accepts_observed
        accept_mid = MessageId(_ACCEPT, node=mid.node, ref=mid.ref)
        self._layer.data_req(accept_mid, bytes([tag & 0xFF, (tag >> 8) & 0xFF]))

    # -- phase 2: the accept ---------------------------------------------------------

    def _on_accept(self, accept_mid: MessageId, data: bytes) -> None:
        count = self._accept_ndup.get(accept_mid, 0) + 1
        self._accept_ndup[accept_mid] = count
        if count > 1:
            if count > self._j:
                self._layer.abort_req(accept_mid)
            return
        # First sighting: diffuse the accept eagerly (it must reach everyone).
        if accept_mid.node != self._layer.node_id and not self._layer.has_pending(
            accept_mid
        ):
            self._layer.data_req(accept_mid, data)
        self._accepts_observed += 1
        tag = data[0] | (data[1] << 8) if len(data) >= 2 else 0
        entry = self._entry(accept_mid.node, accept_mid.ref)
        if entry.accept_tag is None:
            entry.accept_tag = tag
            self._try_schedule(accept_mid.node, accept_mid.ref, entry)

    # -- delivery ----------------------------------------------------------------------

    def _try_schedule(self, node: int, ref: int, entry: _Buffered) -> None:
        if entry.scheduled or entry.data is None or entry.accept_tag is None:
            return
        entry.scheduled = True
        self._timers.cancel_alarm(entry.discard_alarm)
        due = self._sim.now + self._stability
        self._delivery_queue.append((entry.accept_tag, node, ref, due))
        self._sim.schedule(self._stability, self._flush_stable)

    def _prune_delivered(self) -> None:
        # Delivered entries only serve as duplicate tombstones; keep the
        # tables bounded for long-running nodes.
        if len(self._buffered) <= 4096:
            return
        for key in list(self._buffered):
            if len(self._buffered) <= 2048:
                break
            entry = self._buffered[key]
            if entry.delivered:
                del self._buffered[key]
                self._accept_ndup.pop(
                    MessageId(_ACCEPT, node=key[0], ref=key[1]), None
                )

    def _flush_stable(self) -> None:
        # Deliver stable messages in (tag, sender) order; a not-yet-stable
        # head blocks the queue so the total order is never violated — it
        # will be flushed when its own stability timer fires.
        self._delivery_queue.sort(key=lambda item: (item[0], item[1]))
        while self._delivery_queue:
            tag, node, ref, due = self._delivery_queue[0]
            if due > self._sim.now:
                return
            self._delivery_queue.pop(0)
            entry = self._buffered[self._key(node, ref)]
            if entry.delivered:
                continue
            entry.delivered = True
            self._delivered_count += 1
            if self._deliver is not None:
                self._deliver(node, ref, entry.data)
        self._prune_delivered()

    def _on_discard(self, key: Tuple[int, int]) -> None:
        entry = self._buffered.get(key)
        if entry is not None and not entry.scheduled and not entry.delivered:
            # No accept ever arrived: the sender failed mid-protocol.
            del self._buffered[key]

    @property
    def delivered_count(self) -> int:
        """Messages delivered so far (diagnostics)."""
        return self._delivered_count
