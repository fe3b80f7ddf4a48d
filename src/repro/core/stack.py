"""CANELy stack assembly.

:class:`MembershipNode` is the backend-neutral ``msh-can`` contract and the
shell of one node — CAN controller, standard layer, timers, application
traffic, crash/recover — written once; :class:`CanelyNode` implements the
contract with the paper's protocol suite (FDA, RHA, failure detection, site
membership), as :class:`~repro.swim.node.SwimNode` does with SWIM's.
:class:`CanelyNetwork` builds a whole simulated network and offers the
scenario-level helpers that examples, tests and benchmarks share;
:class:`DualChannelNetwork` is the same network over two replicated channels.
"""

from __future__ import annotations

import abc
from typing import Callable, ClassVar, Dict, List, Optional

from repro.can.bus import CanBus
from repro.can.controller import CanController
from repro.can.driver import CanStandardLayer
from repro.can.errormodel import FaultInjector
from repro.can.identifiers import MessageId, MessageType
from repro.can.phy import BitTiming
from repro.core.backend import resolve_backend
from repro.core.config import CanelyConfig
from repro.core.failure_detector import FailureDetector
from repro.core.fda import FdaProtocol
from repro.core.groups import ProcessGroupService
from repro.core.membership import MembershipProtocol
from repro.core.rha import RhaProtocol
from repro.core.state import MembershipState
from repro.core.views import MembershipChange, MembershipView
from repro.errors import ConfigurationError, ProtocolError
from repro.sim.kernel import Simulator
from repro.sim.timers import TimerService
from repro.util.sets import NodeSet

MessageCallback = Callable[[int, int, bytes], None]


class MembershipNode(abc.ABC):
    """One node behind the backend-neutral ``msh-can`` contract.

    The shell is written once: controller + standard layer (or a prebuilt
    layer), a timer service, application traffic and crash/recover
    scripting. A backend is a subclass: it names itself (:attr:`name`, the
    registry key and report label), supplies its configuration
    (:meth:`default_config`/:meth:`coerce_config`), its protocol suite
    (:meth:`_build_protocols`) and its judges (:meth:`monitors`), and
    serves the ``msh-can`` request/notify primitives plus the lifecycle
    (:meth:`halt`/:meth:`reset`) and observability (:meth:`metrics`)
    hooks. The constructor is the factory.
    """

    #: Registry key and report label ("canely", "swim", ...).
    name: ClassVar[str] = ""
    #: The ``(node, failed)`` trace row a detection at one node shows as.
    detection_row: ClassVar[str] = "fda.nty"

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        bus: Optional[CanBus],
        config,
        layer=None,
        timer_drift: float = 0.0,
    ) -> None:
        if not 0 <= node_id < config.capacity:
            raise ConfigurationError(
                f"node id {node_id} outside 0..{config.capacity - 1}"
            )
        self.node_id = node_id
        self.config = config
        self._sim = sim
        if layer is None:
            if bus is None:
                raise ConfigurationError("either a bus or a layer is required")
            self.controller = CanController(node_id)
            bus.attach(self.controller)
            self.layer = CanStandardLayer(self.controller)
        else:
            # A prebuilt layer (e.g. a DualChannelLayer for channel
            # redundancy); it must expose the standard-layer interface and
            # a controller facade.
            self.layer = layer
            self.controller = layer.controller
        self.timers = TimerService(sim, drift=timer_drift, node=node_id)
        # Listeners fire in registration order: the protocols register
        # theirs here, the application's DATA indication follows with its
        # first subscriber (on_message).
        self._build_protocols()
        self._message_listeners: List[MessageCallback] = []
        self._next_ref = 0

    # -- configuration ------------------------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def default_config(cls):
        """The configuration used when the caller passes ``None``."""

    @classmethod
    def coerce_config(cls, config):
        """Adapt ``config`` (possibly ``None`` or a rival backend's
        configuration) into this backend's native configuration type."""
        return cls.default_config() if config is None else config

    @abc.abstractmethod
    def _build_protocols(self) -> None:
        """Construct the protocol entities over ``layer`` and ``timers``."""

    @classmethod
    def monitors(cls, trace, config, metrics) -> list:
        """Attach the online invariant monitors that judge this backend to
        ``trace``; return them in attachment order. The base set is
        membership-level: no phantom removal, and detection latency on
        :attr:`detection_row` within ``config.detection_latency_bound``."""
        from repro.obs.monitors import (
            DetectionLatencyMonitor,
            PhantomRemovalMonitor,
        )

        return [
            PhantomRemovalMonitor().attach(trace),
            DetectionLatencyMonitor(
                config.detection_latency_bound, metrics, row=cls.detection_row
            ).attach(trace),
        ]

    # -- membership API (Fig. 5: msh-can.req / msh-can.nty) --------------------------

    @abc.abstractmethod
    def join(self) -> None:
        """``msh-can.req(JOIN)``: request integration in the set of active
        sites."""

    @abc.abstractmethod
    def leave(self) -> None:
        """``msh-can.req(LEAVE)``: request withdrawal from the view."""

    @abc.abstractmethod
    def view(self) -> MembershipView:
        """``msh-can.req(Get Membership View)``: the current view."""

    @abc.abstractmethod
    def on_membership_change(self, callback: Callable[[MembershipChange], None]) -> None:
        """Register a ``msh-can.nty`` change listener (delivery order =
        registration order)."""

    @property
    @abc.abstractmethod
    def is_member(self) -> bool:
        """True while this node is a full member."""

    # -- lifecycle and observability hooks ---------------------------------------------

    @abc.abstractmethod
    def halt(self) -> None:
        """Stop all protocol activity without touching state (crash)."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget all protocol state (reboot); idempotent."""

    @abc.abstractmethod
    def metrics(self) -> Dict[str, int]:
        """Per-node protocol counters for diagnostics and comparison."""

    # -- application traffic ------------------------------------------------------------

    def send(self, data: bytes) -> int:
        """Broadcast application data (in CANELy it doubles as an implicit
        life-sign; SWIM counts only protocol messages as evidence)."""
        ref = self._next_ref
        self._next_ref = (self._next_ref + 1) % 65536
        mid = MessageId(MessageType.DATA, node=self.node_id, ref=ref)
        self.layer.data_req(mid, data)
        return ref

    def on_message(self, callback: MessageCallback) -> None:
        """Subscribe to application data ``(sender, ref, data)``."""
        if not self._message_listeners:
            self.layer.add_data_ind(self._on_app_data, mtype=MessageType.DATA)
        self._message_listeners.append(callback)

    def _on_app_data(self, mid: MessageId, data: bytes) -> None:
        for listener in list(self._message_listeners):
            listener(mid.node, mid.ref, data)

    # -- fault scripting ------------------------------------------------------------------

    def crash(self) -> None:
        """Crash the node (fail-silent), recording the event in the trace.

        The node's protocol timers die with it: a crashed node generates no
        further events (its controller already discards any I/O).
        """
        self.controller.crash()
        self.halt()
        if self._sim.spans.enabled:
            self._sim.spans.instant("node.crash", "node", node=self.node_id)
        self._sim.trace.record(self._sim.now, "node.crash", node=self.node_id)

    @property
    def crashed(self) -> bool:
        """True once the node has crashed."""
        return self.controller.crashed

    def stats(self) -> Dict[str, int]:
        """Protocol counters for diagnostics and benchmarks: the node's
        ``metrics()`` plus the controller's TX queue depth."""
        return {
            **self.metrics(),
            "tx_queue_depth": getattr(self.controller, "queue_depth", 0),
        }

    def recover(self) -> None:
        """Reboot a crashed node with fresh protocol state.

        The paper assumes a removed node "does not initiate a reintegration
        attempt before a period much higher than the membership cycle
        period has elapsed" (Section 6.4); honouring that is the caller's
        responsibility. After recovery the node is silent until it joins.
        """
        if not self.crashed:
            raise ProtocolError(f"node {self.node_id} has not crashed")
        self.controller.crashed = False
        self.controller.tec = 0
        self.controller.rec = 0
        self.reset()
        if self._sim.spans.enabled:
            self._sim.spans.instant("node.recover", "node", node=self.node_id)
        self._sim.trace.record(self._sim.now, "node.recover", node=self.node_id)


class CanelyNode(MembershipNode):
    """One CANELy node: the shell plus the paper's protocol suite."""

    name = "canely"

    @classmethod
    def default_config(cls) -> CanelyConfig:
        return CanelyConfig()

    @classmethod
    def monitors(cls, trace, config, metrics) -> list:
        """:func:`~repro.obs.monitors.standard_monitors`: the base set plus
        the CANELy-only duplicate failure-sign and view agreement."""
        from repro.analysis.latency import latency_bounds
        from repro.obs.monitors import standard_monitors

        return standard_monitors(
            trace, latency_bounds(config).notification, metrics
        )

    def _build_protocols(self) -> None:
        config, sim = self.config, self._sim
        self.state = MembershipState(capacity=config.capacity)
        self.fda = FdaProtocol(self.layer, sim=sim)
        self.rha = RhaProtocol(self.layer, self.timers, config, self.state)
        self.detector = FailureDetector(self.layer, self.timers, config, self.fda)
        self.membership = MembershipProtocol(
            self.layer,
            self.timers,
            sim,
            config,
            self.state,
            self.rha,
            self.detector,
            self.fda,
        )
        self.groups = ProcessGroupService(
            self.layer, self.membership, config.inconsistent_degree
        )

    def join(self) -> None:
        self.membership.join()

    def leave(self) -> None:
        self.membership.leave()

    def view(self) -> MembershipView:
        return self.membership.view()

    def on_membership_change(self, callback: Callable[[MembershipChange], None]) -> None:
        self.membership.on_change(callback)

    @property
    def is_member(self) -> bool:
        return self.membership.is_member

    def halt(self) -> None:
        self.detector.reset()
        self.membership.halt()

    def reset(self) -> None:
        self.fda.reset_all()
        self.rha.reset()
        self.detector.reset()
        self.membership.reset()

    def metrics(self) -> Dict[str, int]:
        return {
            "view_round": self.membership.view().round_index,
            "els_sent": self.detector.els_sent,
            "rha_executions": self.rha.executions,
            "rha_frames_sent": self.rha.frames_sent,
            "monitored_nodes": len(self.detector.monitored_nodes),
        }


class CanelyNetwork:
    """A simulated membership network: simulator + bus segments + n stacks.

    ``backend`` selects the membership stack every node runs — the paper's
    CANELy suite (``"canely"``, the default) or a rival registered with
    :func:`repro.core.backend.register_backend` (e.g. ``"swim"``); the
    network API is backend-neutral. ``segments`` splits the population
    over that many :class:`CanBus` segments bridged by a single multi-port
    store-and-forward :class:`~repro.can.gateway.CanGateway` (nodes are
    partitioned contiguously); ``segments=1`` is the seed single-bus
    topology, bit-identical to before the parameter existed. The fault
    ``injector`` always drives segment 0.
    """

    def __init__(
        self,
        node_count: int,
        config=None,
        injector: Optional[FaultInjector] = None,
        timing: Optional[BitTiming] = None,
        clustering: bool = True,
        timer_drifts: Optional[Dict[int, float]] = None,
        spans: bool = False,
        backend="canely",
        segments: int = 1,
        gateway_latency: int = 0,
        gateway_queue_limit: int = 64,
    ) -> None:
        node_cls = resolve_backend(backend)
        self.node_cls = node_cls
        self.backend_name = node_cls.name
        self.config = node_cls.coerce_config(config)
        if node_count > self.config.capacity:
            raise ConfigurationError(
                f"{node_count} nodes exceed the configured capacity "
                f"{self.config.capacity}"
            )
        if not 1 <= segments <= max(node_count, 1):
            raise ConfigurationError(
                f"segments must be in 1..{max(node_count, 1)}, got {segments}"
            )
        self.sim = Simulator()
        self.sim.spans.enabled = spans
        if segments == 1:
            self.bus = CanBus(
                self.sim, timing=timing, injector=injector, clustering=clustering
            )
            self.segments = [self.bus]
            self.gateway = None
        else:
            from repro.can.gateway import CanGateway

            self.segments = [
                CanBus(
                    self.sim,
                    timing=timing,
                    injector=injector if index == 0 else None,
                    clustering=clustering,
                )
                for index in range(segments)
            ]
            self.bus = self.segments[0]
            self.gateway = CanGateway(
                self.sim,
                latency=gateway_latency,
                queue_limit=gateway_queue_limit,
            )
            for segment in self.segments:
                self.gateway.attach(segment)
        #: node id -> segment index (contiguous blocks in id order).
        self.segment_map: Dict[int, int] = {
            node_id: node_id * segments // node_count
            for node_id in range(node_count)
        }
        drifts = timer_drifts or {}
        self.nodes: Dict[int, CanelyNode] = {
            node_id: node_cls(
                node_id,
                self.sim,
                self.segments[self.segment_map[node_id]],
                self.config,
                timer_drift=drifts.get(node_id, 0.0),
            )
            for node_id in range(node_count)
        }

    @property
    def buses(self):
        """All bus segments, as a tuple."""
        return tuple(self.segments)

    def segment_of(self, node_id: int) -> int:
        """The segment index ``node_id`` is attached to."""
        return self.segment_map[node_id]

    def node(self, node_id: int) -> CanelyNode:
        """The stack of one node."""
        return self.nodes[node_id]

    def join_all(self) -> None:
        """Every node requests to join (cold-start bootstrap)."""
        for node in self.nodes.values():
            node.join()

    def run_for(self, duration: int) -> None:
        """Advance the simulation by ``duration`` ticks."""
        self.sim.run_until(self.sim.now + duration)

    def run_cycles(self, cycles: float) -> None:
        """Advance by a number of membership cycle periods."""
        self.run_for(round(cycles * self.config.tm))

    def scenario(self, seed: Optional[int] = None):
        """A fluent :class:`~repro.workloads.builder.ScenarioBuilder` over
        this network; ``seed`` labels the scenario in error messages."""
        from repro.workloads.builder import ScenarioBuilder

        return ScenarioBuilder(self, seed=seed)

    def attach_monitors(self):
        """Attach the backend's online invariant monitors
        (:meth:`MembershipNode.monitors`) to this run and return them, in
        attachment order."""
        return self.node_cls.monitors(
            self.sim.trace, self.config, self.sim.metrics
        )

    # -- network-wide assertions -----------------------------------------------------------

    def correct_nodes(self) -> List[CanelyNode]:
        """Nodes that have not crashed."""
        return [node for node in self.nodes.values() if not node.crashed]

    def member_views(self) -> Dict[int, NodeSet]:
        """The membership view at every correct full member."""
        return {
            node.node_id: node.view().members
            for node in self.correct_nodes()
            if node.is_member
        }

    def views_agree(self) -> bool:
        """True when all correct full members hold the same view."""
        views = list(self.member_views().values())
        return all(view == views[0] for view in views)

    def agreed_view(self) -> NodeSet:
        """The common view; raises if members disagree."""
        views = self.member_views()
        if not views:
            return NodeSet.empty(self.config.capacity)
        first = next(iter(views.values()))
        disagreeing = {
            node_id: view for node_id, view in views.items() if view != first
        }
        if disagreeing:
            raise AssertionError(
                f"views disagree: {first!r} at most nodes vs {disagreeing!r}"
            )
        return first


class DualChannelNetwork(CanelyNetwork):
    """A CANELy network over two replicated channels (Fig. 11's optional
    channel redundancy): two independent buses, two controllers per node,
    the protocol suite running over a :class:`DualChannelLayer`.

    A whole channel can be taken out with :meth:`fail_channel`; the
    protocols never notice. The channels are the network's two
    ``buses``; every query and scripting helper is
    :class:`CanelyNetwork`'s.
    """

    def __init__(
        self,
        node_count: int,
        config: Optional[CanelyConfig] = None,
        pairing_window: Optional[int] = None,
        spans: bool = False,
    ) -> None:
        from repro.can.channels import DualChannelLayer
        from repro.sim.clock import us

        self.node_cls = CanelyNode
        self.backend_name = CanelyNode.name
        self.config = config if config is not None else CanelyConfig()
        if node_count > self.config.capacity:
            raise ConfigurationError(
                f"{node_count} nodes exceed the configured capacity "
                f"{self.config.capacity}"
            )
        self.sim = Simulator()
        self.sim.spans.enabled = spans
        self.segments = [CanBus(self.sim), CanBus(self.sim)]
        self.bus = self.segments[0]
        self.gateway = None
        #: Every node sits on both channels; queries file it under the first.
        self.segment_map: Dict[int, int] = dict.fromkeys(range(node_count), 0)
        window = pairing_window if pairing_window is not None else us(500)
        self.nodes: Dict[int, CanelyNode] = {}
        for node_id in range(node_count):
            layers = []
            for bus in self.segments:
                controller = CanController(node_id)
                bus.attach(controller)
                layers.append(CanStandardLayer(controller))
            dual = DualChannelLayer(self.sim, layers[0], layers[1], window)
            self.nodes[node_id] = CanelyNode(
                node_id, self.sim, None, self.config, layer=dual
            )

    def fail_channel(self, channel_index: int) -> None:
        """Permanently silence one whole channel (cable destroyed, channel
        babbling fenced off, ...). The other channel carries on."""
        # A channel that never provides service again: an unbounded
        # inaccessibility window.
        self.buses[channel_index].inject_inaccessibility(2**40)
