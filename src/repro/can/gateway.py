"""Store-and-forward gateway bridging CAN bus segments.

One CANELy network does not have to be one physical bus: a gateway with a
port (controller) on each segment receives every frame a segment carries
and re-queues it on the others, so the protocol suite above sees a single
logical broadcast domain spanning segments. This is the standard CAN
interconnection topology (bridges/gateways between bus segments) and what
lets scenarios scale past the electrical limits of one bus.

The model is deliberately faithful to a real CAN gateway:

* **store and forward** — a frame is forwarded only after it completed on
  the source segment, plus a configurable relay ``latency``; the copy
  then contends in normal arbitration on the target segment, so bridging
  adds real, observable delay that surveillance timeouts must cover;
* **identifier filters** — an optional :class:`~repro.can.filters.FilterBank`
  per port limits what crosses the bridge (installed as the port
  controller's acceptance filters, so filtered traffic is not even
  delivered to the gateway);
* **bounded queues** — at most ``queue_limit`` frames may be outstanding
  (relay-scheduled or queued in the port controller) per target port;
  beyond that the gateway drops, counts the drop and traces it
  (``gw.drop``), exactly how real bridges lose bursts.

Forwarded copies are suppressed from re-forwarding when they echo back on
the target port (a gateway must not reflect its own relays), keyed by
frame identity — so identical remote frames may still cluster with local
transmissions on the target segment, preserving the wired-AND semantics
end to end. A single multi-port gateway bridges any number of segments
loop-free; building rings out of several gateways is the caller's
responsibility to keep acyclic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.can.bus import CanBus
from repro.can.controller import CanController
from repro.can.frame import CanFrame
from repro.errors import BusError

#: Default node identifier gateways attach under. Outside every CANELy
#: population (configs cap capacity well below it), so a gateway port
#: never collides with a member node and never appears in a view.
GATEWAY_NODE_ID = 255

#: Frame identity for echo suppression: everything the wire carries.
_FrameKey = Tuple[int, bool, bytes]


class GatewayStats:
    """Per-gateway forwarding accounting."""

    __slots__ = ("forwarded", "dropped", "forwarded_by_port", "dropped_by_port")

    def __init__(self) -> None:
        self.forwarded = 0
        self.dropped = 0
        #: target-port index -> frames relayed onto that segment.
        self.forwarded_by_port: Dict[int, int] = {}
        #: target-port index -> frames dropped at that segment's queue.
        self.dropped_by_port: Dict[int, int] = {}


class _Port:
    """One gateway attachment: a controller on one segment."""

    __slots__ = ("index", "bus", "controller", "inflight", "scheduled")

    def __init__(self, index: int, bus: CanBus, controller: CanController) -> None:
        self.index = index
        self.bus = bus
        self.controller = controller
        #: Frames this port relayed that have not echoed back yet.
        self.inflight: Dict[_FrameKey, int] = {}
        #: Relay events scheduled but not yet submitted to the controller.
        self.scheduled = 0


class CanGateway:
    """A store-and-forward bridge between two or more :class:`CanBus`
    segments."""

    def __init__(
        self,
        sim,
        *,
        latency: int = 0,
        queue_limit: int = 64,
        node_id: int = GATEWAY_NODE_ID,
        name: str = "gw",
    ) -> None:
        if latency < 0:
            raise BusError(f"gateway latency must be non-negative: {latency}")
        if queue_limit < 1:
            raise BusError(f"gateway queue limit must be positive: {queue_limit}")
        self._sim = sim
        self.latency = latency
        self.queue_limit = queue_limit
        self.node_id = node_id
        self.name = name
        self._ports: List[_Port] = []
        self.stats = GatewayStats()
        metrics = sim.metrics
        self._inc_forwarded = metrics.counter("gw.forwarded").inc
        self._inc_dropped = metrics.counter("gw.dropped").inc

    # -- topology -----------------------------------------------------------

    @property
    def ports(self) -> List[CanController]:
        """The port controllers, in attach order."""
        return [port.controller for port in self._ports]

    @property
    def segments(self) -> List[CanBus]:
        """The bridged segments, in attach order."""
        return [port.bus for port in self._ports]

    def attach(self, bus: CanBus, filters=None) -> CanController:
        """Open a port on ``bus``; returns the port controller.

        ``filters`` optionally installs a
        :class:`~repro.can.filters.FilterBank` as the port's acceptance
        filters: only passing identifiers cross the bridge *from* this
        segment. Attaching invalidates the segment's delivery plans (via
        :meth:`CanBus.attach`), so matching traffic is routed to the new
        port immediately.
        """
        for port in self._ports:
            if port.bus is bus:
                raise BusError(f"gateway {self.name} already bridges this bus")
        controller = CanController(self.node_id)
        bus.attach(controller)
        if filters is not None:
            controller.set_filters(filters)
        port = _Port(len(self._ports), bus, controller)
        controller.on_rx = lambda frame, _port=port: self._on_rx(_port, frame)
        self._ports.append(port)
        return controller

    def detach(self, bus: CanBus) -> None:
        """Close the port on ``bus``.

        Detaching goes through :meth:`CanBus.detach`, which drops the
        segment's cached delivery plans — mandatory, or stale plans would
        keep routing frames to the departed port.
        """
        for i, port in enumerate(self._ports):
            if port.bus is bus:
                bus.detach(port.controller)
                del self._ports[i]
                for later in self._ports[i:]:
                    later.index -= 1
                return
        raise BusError(f"gateway {self.name} has no port on this bus")

    # -- forwarding ---------------------------------------------------------

    def _on_rx(self, port: _Port, frame: CanFrame) -> None:
        key = (frame.identifier, frame.remote, frame.data)
        inflight = port.inflight
        count = inflight.get(key, 0)
        if count:
            # Echo of our own relay completing on this segment: consume
            # it instead of reflecting it back where it came from.
            if count == 1:
                del inflight[key]
            else:
                inflight[key] = count - 1
            return
        for target in self._ports:
            if target is port:
                continue
            outstanding = target.scheduled + target.controller.queue_depth
            if outstanding >= self.queue_limit:
                self.stats.dropped += 1
                by_port = self.stats.dropped_by_port
                by_port[target.index] = by_port.get(target.index, 0) + 1
                self._inc_dropped()
                self._sim.trace.record(
                    self._sim.now,
                    "gw.drop",
                    gateway=self.name,
                    port=target.index,
                    identifier=frame.identifier,
                )
                continue
            target.scheduled += 1
            if self.latency:
                self._sim.schedule(
                    self.latency,
                    lambda t=target, f=frame, k=key: self._relay(t, f, k),
                )
            else:
                # Zero-latency relay still defers by one kernel event so
                # the copy contends in the target's next start-of-frame
                # window (the same reason CanBus.kick defers arbitration).
                self._sim.schedule(
                    0, lambda t=target, f=frame, k=key: self._relay(t, f, k)
                )

    def _relay(self, target: _Port, frame: CanFrame, key: _FrameKey) -> None:
        target.scheduled -= 1
        request = target.controller.submit(frame)
        if request is None:
            # Port dead (bus-off) — the bridge to this segment is down.
            return
        target.inflight[key] = target.inflight.get(key, 0) + 1
        self.stats.forwarded += 1
        by_port = self.stats.forwarded_by_port
        by_port[target.index] = by_port.get(target.index, 0) + 1
        self._inc_forwarded()
        self._sim.trace.record(
            self._sim.now,
            "gw.forward",
            gateway=self.name,
            port=target.index,
            identifier=frame.identifier,
        )
