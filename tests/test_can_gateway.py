"""The store-and-forward gateway bridging CAN bus segments.

Covers forwarding and echo suppression, relay latency, per-port
identifier filters, the bounded queue's traced drops, attach/detach
(including the delivery-plan invalidation both must trigger) and the
``CanBus.detach`` primitive itself.
"""

import pytest

from repro.can.bus import CanBus
from repro.can.controller import CanController
from repro.can.driver import CanStandardLayer
from repro.can.filters import AcceptanceFilter, FilterBank
from repro.can.gateway import GATEWAY_NODE_ID, CanGateway
from repro.can.identifiers import MessageId, MessageType
from repro.errors import BusError
from repro.sim.clock import ms
from repro.sim.kernel import Simulator


def _station(bus, node_id):
    """One application station: controller + standard layer + rx log."""
    controller = CanController(node_id)
    bus.attach(controller)
    layer = CanStandardLayer(controller)
    log = []
    layer.add_data_ind(
        lambda mid, data: log.append((mid.node, mid.ref, data)),
        mtype=MessageType.DATA,
    )
    return layer, log


def _bridged_pair(sim, **gateway_kwargs):
    """Two segments bridged by a gateway, one station on each."""
    bus_a = CanBus(sim)
    bus_b = CanBus(sim)
    gateway = CanGateway(sim, **gateway_kwargs)
    gateway.attach(bus_a)
    gateway.attach(bus_b)
    sender, sender_log = _station(bus_a, 1)
    receiver, receiver_log = _station(bus_b, 2)
    return bus_a, bus_b, gateway, sender, sender_log, receiver, receiver_log


def test_frames_cross_the_bridge_exactly_once():
    sim = Simulator()
    _a, _b, gateway, sender, sender_log, _receiver, receiver_log = (
        _bridged_pair(sim)
    )
    sender.data_req(MessageId(MessageType.DATA, node=1, ref=7), b"hi")
    sim.run()
    assert receiver_log == [(1, 7, b"hi")]
    assert gateway.stats.forwarded == 1
    assert gateway.stats.dropped == 0
    # ``.ind`` includes own transmissions (paper Fig. 4), so the sender
    # hears its frame exactly once; echo suppression must prevent the
    # relay completing on B from being reflected back as a second copy.
    assert sender_log == [(1, 7, b"hi")]
    assert gateway.stats.forwarded_by_port == {1: 1}


def test_relay_latency_delays_the_copy():
    fast_sim = Simulator()
    _bridged = _bridged_pair(fast_sim)
    fast_sender = _bridged[3]
    fast_sender.data_req(MessageId(MessageType.DATA, node=1, ref=0), b"x")
    fast_sim.run()
    fast_done = fast_sim.now

    slow_sim = Simulator()
    slow = _bridged_pair(slow_sim, latency=ms(3))
    slow[3].data_req(MessageId(MessageType.DATA, node=1, ref=0), b"x")
    slow_sim.run()
    assert slow[6] == [(1, 0, b"x")]
    assert slow_sim.now >= fast_done + ms(3)


def test_port_filters_limit_what_crosses():
    sim = Simulator()
    bus_a = CanBus(sim)
    bus_b = CanBus(sim)
    gateway = CanGateway(sim)
    # Only node 1's identifiers may leave segment A.
    gateway.attach(bus_a, filters=FilterBank([AcceptanceFilter.for_sender(1)]))
    gateway.attach(bus_b)
    allowed, _ = _station(bus_a, 1)
    blocked, _ = _station(bus_a, 3)
    _receiver, receiver_log = _station(bus_b, 2)
    allowed.data_req(MessageId(MessageType.DATA, node=1, ref=1), b"yes")
    blocked.data_req(MessageId(MessageType.DATA, node=3, ref=2), b"no")
    sim.run()
    assert receiver_log == [(1, 1, b"yes")]
    assert gateway.stats.forwarded == 1


def test_bounded_queue_drops_are_counted_and_traced():
    sim = Simulator()
    _a, _b, gateway, sender, _slog, _receiver, receiver_log = _bridged_pair(
        sim, latency=ms(5), queue_limit=1
    )
    for ref in range(3):
        sender.data_req(MessageId(MessageType.DATA, node=1, ref=ref), b"q")
    sim.run()
    # Back-to-back completions on segment A while the first relay sits in
    # its 5 ms store-and-forward window: one outstanding frame allowed,
    # the rest dropped at the bridge.
    assert gateway.stats.forwarded == 1
    assert gateway.stats.dropped == 2
    assert gateway.stats.dropped_by_port == {1: 2}
    assert len(receiver_log) == 1
    drops = sim.trace.select(category="gw.drop")
    assert len(drops) == 2
    assert drops[0].data["port"] == 1
    assert sim.metrics.counter("gw.dropped").value == 2


def test_attach_mid_run_invalidates_delivery_plans():
    sim = Simulator()
    bus_a = CanBus(sim)
    bus_b = CanBus(sim)
    sender, _ = _station(bus_a, 1)
    _receiver, receiver_log = _station(bus_b, 2)
    # Traffic before the bridge exists warms segment A's dispatch plan.
    sender.data_req(MessageId(MessageType.DATA, node=1, ref=0), b"pre")
    sim.run()
    assert receiver_log == []
    gateway = CanGateway(sim)
    gateway.attach(bus_a)
    gateway.attach(bus_b)
    sender.data_req(MessageId(MessageType.DATA, node=1, ref=1), b"post")
    sim.run()
    assert receiver_log == [(1, 1, b"post")]


def test_detach_stops_forwarding_and_later_traffic_still_flows():
    sim = Simulator()
    bus_a, bus_b, gateway, sender, _slog, _receiver, receiver_log = (
        _bridged_pair(sim)
    )
    sender.data_req(MessageId(MessageType.DATA, node=1, ref=0), b"one")
    sim.run()
    gateway.detach(bus_b)
    sender.data_req(MessageId(MessageType.DATA, node=1, ref=1), b"two")
    sim.run()
    assert receiver_log == [(1, 0, b"one")]
    assert gateway.segments == [bus_a]
    with pytest.raises(BusError):
        gateway.detach(bus_b)


def test_attach_validates_arguments():
    sim = Simulator()
    bus = CanBus(sim)
    gateway = CanGateway(sim)
    gateway.attach(bus)
    with pytest.raises(BusError):
        gateway.attach(bus)
    with pytest.raises(BusError):
        CanGateway(sim, latency=-1)
    with pytest.raises(BusError):
        CanGateway(sim, queue_limit=0)
    assert gateway.ports[0].node_id == GATEWAY_NODE_ID


def test_three_way_bridge_fans_out_to_every_other_segment():
    sim = Simulator()
    buses = [CanBus(sim) for _ in range(3)]
    gateway = CanGateway(sim)
    for bus in buses:
        gateway.attach(bus)
    sender, sender_log = _station(buses[0], 1)
    _r1, log_1 = _station(buses[1], 2)
    _r2, log_2 = _station(buses[2], 3)
    sender.data_req(MessageId(MessageType.DATA, node=1, ref=9), b"all")
    sim.run()
    assert log_1 == [(1, 9, b"all")]
    assert log_2 == [(1, 9, b"all")]
    assert sender_log == [(1, 9, b"all")]  # own tx only, never a reflection
    assert gateway.stats.forwarded == 2


def test_bus_detach_removes_the_controller():
    sim = Simulator()
    bus = CanBus(sim)
    controller = CanController(4)
    bus.attach(controller)
    bus.detach(controller)
    # The slot is free again and the controller is unhomed.
    replacement = CanController(4)
    bus.attach(replacement)
    with pytest.raises(BusError):
        bus.detach(controller)  # no longer the attached controller


def test_bus_detach_rejects_unattached_controllers():
    sim = Simulator()
    bus = CanBus(sim)
    with pytest.raises(BusError):
        bus.detach(CanController(9))
