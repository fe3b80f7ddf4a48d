"""OSEK network management — the distributed baseline of Section 6.6.

OSEK NM organizes the active nodes in a **logical ring**: the node holding
the (implicit) token waits ``T_typ`` and then addresses a ring message to
its successor; every node observes every ring message. Failure detection is
driven by *ring progress*: when the addressed node fails to forward the
token within the progress timeout, every observer marks it absent and the
predecessor re-issues the token to the next successor (OSEK's skipped-node
/ ring reconfiguration logic). Nodes announce themselves with alive
messages at startup and whenever they rejoin.

The paper's criticism, which the related-work benchmark quantifies: the
worst-case failure-detection latency is about one full ring circulation —
the token must *reach* the dead node before its silence is observable — so
for ``T_typ = 100 ms`` and a handful of nodes, **about one second**, versus
CANELy's tens of milliseconds; and the ring message traffic runs
continuously regardless of membership activity.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.can.driver import CanStandardLayer
from repro.can.identifiers import MessageId, MessageType
from repro.errors import ConfigurationError
from repro.sim.kernel import Simulator
from repro.sim.timers import Alarm, TimerService

#: ``ref`` subtype: ring message; the low byte carries the destination.
_RING_REF_BASE = 0x300
#: ``ref`` subtype: alive message (startup / rejoin announcement).
_ALIVE_REF = 0x400


class OsekNetworkManagement:
    """One node's OSEK NM entity.

    Args:
        layer: the node's CAN standard layer.
        timers: the node's timer service.
        sim: the simulator.
        ring_nodes: the configured node population, in ring order.
        t_typ: typical time between ring messages (OSEK's ``TTyp``).
        t_progress_factor: progress timeout, in multiples of ``TTyp``; the
            addressed node must forward the token within this window.
    """

    def __init__(
        self,
        layer: CanStandardLayer,
        timers: TimerService,
        sim: Simulator,
        ring_nodes: List[int],
        t_typ: int,
        t_progress_factor: float = 2.0,
    ) -> None:
        if t_typ <= 0:
            raise ConfigurationError(f"TTyp must be positive: {t_typ}")
        if t_progress_factor <= 1.0:
            raise ConfigurationError(
                "the progress timeout must exceed one TTyp hop: "
                f"{t_progress_factor}"
            )
        if layer.node_id not in ring_nodes:
            raise ConfigurationError("this node is not part of the ring")
        self._layer = layer
        self._timers = timers
        self._sim = sim
        self.ring = sorted(ring_nodes)
        self.t_typ = t_typ
        self.t_progress = round(t_progress_factor * t_typ)
        #: Bootstrap timeout: how long to wait for the first ring message.
        self.t_bootstrap = 2 * t_typ * len(self.ring)
        # Presence is learnt from alive/ring sightings.
        self._present = {layer.node_id}
        self._ring_seen = False
        self._progress_alarm: Optional[Alarm] = None
        self._stalled_once = False
        self._last_ring_sender: Optional[int] = None
        self._last_ring_dest: Optional[int] = None
        self.detected: Dict[int, int] = {}
        self.ring_messages_sent = 0
        self._running = False
        layer.add_data_ind(self._on_nm_frame, mtype=MessageType.NM)

    @property
    def present_nodes(self) -> List[int]:
        """Nodes this entity currently believes present, sorted."""
        return sorted(self._present)

    def start(self) -> None:
        """Join ring operation; the lowest identifier bootstraps the token."""
        if self._running:
            return
        self._running = True
        # Alive-message startup: announce presence.
        self._layer.data_req(
            MessageId(MessageType.NM, node=self._layer.node_id, ref=_ALIVE_REF),
            b"",
        )
        if self._layer.node_id == min(self.ring):
            self._timers.start_alarm(self.t_typ, self._send_ring)
        # Fallback for a dead bootstrapper: if no ring message ever shows
        # up, the lowest surviving identifier claims the token.
        self._timers.start_alarm(self.t_bootstrap, self._on_bootstrap_timeout)

    # -- ring operation -----------------------------------------------------------

    def _successor(self, node: int) -> int:
        candidates = sorted(self._present | {self._layer.node_id})
        for candidate in candidates:
            if candidate > node:
                return candidate
        return candidates[0]

    def _send_ring(self) -> None:
        if not self._running:
            return
        dest = self._successor(self._layer.node_id)
        self.ring_messages_sent += 1
        self._layer.data_req(
            MessageId(
                MessageType.NM,
                node=self._layer.node_id,
                ref=_RING_REF_BASE | dest,
            ),
            b"",
        )

    def _on_nm_frame(self, mid: MessageId, data: bytes) -> None:
        if not self._running or mid.ref < _RING_REF_BASE:
            return
        sender = mid.node
        self._present.add(sender)
        # A node suspected absent that speaks again has rejoined.
        self.detected.pop(sender, None)
        if mid.ref == _ALIVE_REF:
            return
        dest = mid.ref & 0xFF
        self._ring_seen = True
        self._stalled_once = False
        self._last_ring_sender = sender
        self._last_ring_dest = dest
        # Ring progress supervision: the destination must forward the token
        # within the progress window, else it is absent.
        self._timers.cancel_alarm(self._progress_alarm)
        self._progress_alarm = self._timers.start_alarm(
            self.t_progress, self._on_progress_timeout
        )
        if dest == self._layer.node_id:
            # We hold the token: forward the ring message after TTyp.
            self._timers.start_alarm(self.t_typ, self._send_ring)

    # -- failure handling ------------------------------------------------------------

    def _on_progress_timeout(self) -> None:
        if not self._running:
            return
        self._progress_alarm = None
        dest = self._last_ring_dest
        if dest is None:
            return
        if not self._stalled_once:
            # First stall on this handoff: the addressed node is absent.
            self._stalled_once = True
            if dest != self._layer.node_id and dest not in self.detected:
                self._detect(dest)
            if self._last_ring_sender == self._layer.node_id:
                # We addressed the dead node: skip it (ring reconfiguration).
                self._send_ring()
            else:
                # Watch for the predecessor's re-send; if the predecessor
                # died too, the second timeout below recovers the ring.
                self._progress_alarm = self._timers.start_alarm(
                    self.t_progress, self._on_progress_timeout
                )
        else:
            # The predecessor never re-sent: it is gone as well. The lowest
            # surviving identifier claims the token.
            sender = self._last_ring_sender
            if sender is not None and sender != self._layer.node_id:
                if sender not in self.detected:
                    self._detect(sender)
            if self._layer.node_id == min(self._present):
                self._send_ring()
            else:
                self._progress_alarm = self._timers.start_alarm(
                    self.t_progress, self._on_progress_timeout
                )

    def _on_bootstrap_timeout(self) -> None:
        if not self._running or self._ring_seen:
            return
        bootstrapper = min(self.ring)
        if bootstrapper != self._layer.node_id:
            if bootstrapper not in self.detected:
                self._detect(bootstrapper)
        if self._layer.node_id == min(self._present):
            self._send_ring()

    def _detect(self, node: int) -> None:
        self._present.discard(node)
        self.detected[node] = self._sim.now
