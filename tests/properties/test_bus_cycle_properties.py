"""Property: the two-event frame cycle is observation-identical to the
three-event one, and never fires more events.

A frame costs the bus two kernel events: its arbitration and its
completion, which files the next start of frame in a kernel slot and puts
the arbitration there when a request is queued. The oracle is
``tests/bus_cycle_reference.py``: the cycle with a third event per frame
at the end of the interframe space, which schedules the arbitration in a
zero-delay event. Whatever the traffic — bursts of requests submitted at
one instant, identical remote frames clustering, inaccessibility windows,
consistent and inconsistent omissions, bus-off with requests still queued,
a receiver crashing another node during a delivery, two bridged segments
(zero-latency relays included), two replicated channels — both must leave
the same trace rows in the same order, the same bus accounting and the
same metrics snapshot, and the two-event cycle must fire no more kernel
events than the three-event one.
"""

from dataclasses import asdict

from bus_cycle_reference import three_event_cycle
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.can.bitstream import INTERFRAME_BITS
from repro.can.bus import CanBus
from repro.can.controller import BUS_OFF_THRESHOLD, CanController
from repro.can.driver import CanStandardLayer
from repro.can.errormodel import FaultInjector, FaultKind
from repro.can.frame import remote_frame
from repro.can.gateway import GATEWAY_NODE_ID, CanGateway
from repro.can.identifiers import MessageId, MessageType
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork, DualChannelNetwork
from repro.errors import BusError
from repro.sim.clock import ms, us
from repro.sim.kernel import Simulator
from repro.sim.trace import record_to_dict

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The frame a receiver's upcall answers by crashing another node.
_FATAL_REF = 7
#: The bus-off victim's own frames.
_VICTIM_REF = 5


def _assert_cycles_agree(scenario):
    """``scenario()`` under both cycles: the same observables, and no more
    kernel events on the two-event cycle."""
    two = scenario()
    with three_event_cycle():
        three = scenario()
    assert two.pop("events") <= three.pop("events")
    assert two == three


def _observables(sim, buses):
    return {
        "trace": [record_to_dict(record) for record in sim.trace],
        "stats": [asdict(bus.stats) for bus in buses],
        "metrics": sim.metrics.snapshot(),
        "events": sim.events_processed,
    }


# -- raw bus -------------------------------------------------------------------


@st.composite
def bus_schedules(draw):
    node_count = draw(st.integers(min_value=2, max_value=5))
    node = st.integers(min_value=0, max_value=node_count - 1)
    at = st.integers(min_value=0, max_value=ms(1))
    # Bursts: every request of one burst is submitted at the same instant,
    # so they meet in one start-of-frame window; the identifier's node
    # field is drawn apart from the sender, so remote frames can cluster.
    request = st.tuples(
        node,  # sender
        node,  # the identifier's node field
        st.integers(min_value=0, max_value=3),  # ref
        st.booleans(),  # remote frame?
    )
    bursts = draw(
        st.lists(
            st.tuples(at, st.lists(request, min_size=1, max_size=5)),
            min_size=1,
            max_size=4,
        )
    )
    faults = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),  # transmission index
                st.none() | st.frozensets(node),  # accepting subset
                st.booleans(),  # crash the sender(s)?
            ),
            max_size=2,
        )
    )
    windows = draw(
        st.lists(st.tuples(at, st.integers(min_value=1, max_value=300)), max_size=2)
    )
    # Bus-off with a request still queued, then maybe the recovery sequence.
    bus_off = draw(st.none() | st.tuples(node, at))
    bus_off_recovery = draw(st.booleans())
    # A receiver that crashes another node on hearing a ``_FATAL_REF`` frame,
    # in the middle of that frame's delivery.
    fatal = draw(st.none() | st.tuples(node, node, node, at))
    return (
        node_count, bursts, faults, windows, bus_off, bus_off_recovery, fatal,
    )


def _run_bus_scenario(schedule):
    node_count, bursts, faults, windows, bus_off, bus_off_recovery, fatal = schedule
    injector = FaultInjector()
    for tx_index, accepting, crash_sender in faults:
        if accepting is None:
            injector.fault_on_transmission(
                tx_index, FaultKind.CONSISTENT_OMISSION, crash_sender=crash_sender
            )
        else:
            injector.fault_on_transmission(
                tx_index,
                FaultKind.INCONSISTENT_OMISSION,
                accepting=accepting,
                crash_sender=crash_sender,
            )
    sim = Simulator()
    bus = CanBus(sim, injector=injector, bus_off_recovery=bus_off_recovery)
    controllers = {}
    layers = {}
    for node_id in range(node_count):
        controllers[node_id] = controller = CanController(node_id)
        bus.attach(controller)
        layers[node_id] = CanStandardLayer(controller)

    def submit(sender, mid_node, ref, remote):
        mid = MessageId(MessageType.DATA, node=mid_node, ref=ref)
        if remote:
            layers[sender].rtr_req(mid)
        else:
            # One payload per identifier: two different data frames never
            # contend with one identifier.
            layers[sender].data_req(mid, bytes([mid_node, ref]))

    for at, burst in bursts:
        sim.schedule_at(
            at, lambda burst=burst: [submit(*request) for request in burst]
        )
    for at, bits in windows:
        sim.schedule_at(at, lambda bits=bits: bus.inject_inaccessibility(bits))
    if bus_off is not None:
        victim, at = bus_off
        victim_mid = MessageId(MessageType.DATA, node=victim, ref=_VICTIM_REF)
        injector.fault_on_frame(
            lambda frame: frame.mid == victim_mid, FaultKind.CONSISTENT_OMISSION
        )

        def strain(controller=controllers[victim], layer=layers[victim]):
            controller.tec = BUS_OFF_THRESHOLD
            layer.data_req(victim_mid, b"")
            layer.rtr_req(MessageId(MessageType.DATA, node=victim, ref=_VICTIM_REF + 1))

        sim.schedule_at(at, strain)
    if fatal is not None:
        listener, victim, sender, at = fatal
        fatal_mid = MessageId(MessageType.DATA, node=sender, ref=_FATAL_REF)

        def on_data(mid, data, victim=controllers[victim]):
            if mid == fatal_mid:
                victim.crash()

        layers[listener].add_data_ind(on_data)
        sim.schedule_at(at, lambda: layers[sender].data_req(fatal_mid, b"\x07"))
    bus_error = None
    try:
        sim.run()
    except BusError as exc:
        bus_error = str(exc)
    return {
        **_observables(sim, [bus]),
        "bus_error": bus_error,
        "queued": {n: c.queue_depth for n, c in controllers.items()},
        "tec": {n: c.tec for n, c in controllers.items()},
    }


#: Corners each forced by one schedule.
REACH = {
    # Three nodes submit one remote frame at one instant: one physical frame.
    "clustered-burst": (3, [(0, [(0, 1, 0, True), (1, 1, 0, True), (2, 1, 0, True)])],
                        [], [], None, False, None),
    # A window opens while a frame is queued behind another.
    "inaccessibility": (3, [(0, [(0, 0, 0, False), (1, 1, 0, True)])],
                        [], [(1, 200)], None, False, None),
    "bus-off-recovered": (3, [(ms(1), [(1, 1, 0, False)])],
                          [], [], (0, 1), True, None),
    "bus-off-for-good": (3, [(ms(1), [(1, 1, 0, False)])],
                         [], [], (0, 1), False, None),
    "inconsistent-crash-sender": (3, [(0, [(0, 0, 0, True), (1, 1, 1, False)])],
                                  [(0, frozenset({2}), True)], [], None, False, None),
    # Node 0 hears node 1's frame and crashes node 2, which queued a
    # request while that frame was on the wire.
    "crash-during-delivery": (3, [(1, [(2, 2, 0, False)])],
                              [], [], None, False, (0, 2, 1, 0)),
}


@SLOW
@given(bus_schedules())
@example(REACH["clustered-burst"])
@example(REACH["inaccessibility"])
@example(REACH["bus-off-recovered"])
@example(REACH["bus-off-for-good"])
@example(REACH["inconsistent-crash-sender"])
@example(REACH["crash-during-delivery"])
def test_two_event_cycle_matches_three_on_raw_bus(schedule):
    _assert_cycles_agree(lambda: _run_bus_scenario(schedule))


def test_the_explicit_examples_reach_their_corner():
    runs = {name: _run_bus_scenario(schedule) for name, schedule in REACH.items()}
    assert runs["clustered-burst"]["stats"][0]["physical_frames"] == 1
    assert runs["clustered-burst"]["stats"][0]["clustered_requests"] == 2
    assert runs["inaccessibility"]["stats"][0]["inaccessibility_bits"] == 200
    assert runs["bus-off-recovered"]["stats"][0]["bus_off_recoveries"] == 1
    assert runs["bus-off-for-good"]["queued"][0] == 1
    crashed = [
        row for row in runs["inconsistent-crash-sender"]["trace"]
        if row["category"] == "node.crash"
    ]
    assert crashed
    # Node 2's frame, queued behind node 1's, died with node 2.
    run = runs["crash-during-delivery"]
    senders = [
        row["data"]["senders"] for row in run["trace"] if row["category"] == "bus.tx"
    ]
    assert senders == [[1]] and run["queued"][2] == 0


# -- protocol stacks: omissions, crashes, bridged segments -------------------

CONFIG = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


@st.composite
def network_scenarios(draw):
    node_count = draw(st.integers(min_value=3, max_value=6))
    # One bus, two segments bridged by a gateway, or two replicated channels.
    topology = draw(st.sampled_from(["bus", "segments", "channels"]))
    # A zero-latency relay is submitted at the instant its frame completed
    # on the source segment, possibly the instant the target arbitrates.
    latency = draw(st.just(0) | st.integers(min_value=us(1), max_value=us(100)))
    crash_node = draw(st.integers(min_value=0, max_value=node_count - 1))
    crash_at = draw(st.integers(min_value=ms(150), max_value=ms(250)))
    fault = draw(
        st.none()
        | st.tuples(
            st.sampled_from([MessageType.FDA, MessageType.ELS, MessageType.RHA]),
            st.none() | st.integers(min_value=0, max_value=node_count - 1),
        )
    )
    return node_count, topology, latency, crash_node, crash_at, fault


def _run_network_scenario(scenario):
    node_count, topology, latency, crash_node, crash_at, fault = scenario
    injector = FaultInjector()
    if fault is not None:
        mtype, accepting = fault
        if accepting is None:
            injector.fault_on_frame(
                lambda f: f.mid.mtype is mtype, FaultKind.CONSISTENT_OMISSION
            )
        else:
            injector.fault_on_frame(
                lambda f: f.mid.mtype is mtype,
                FaultKind.INCONSISTENT_OMISSION,
                accepting=[accepting],
            )
    if topology == "channels":
        net = DualChannelNetwork(node_count=node_count, config=CONFIG)
        # The faults strike the first channel only, so the two channels'
        # frames drift apart and their copies race.
        net.bus.injector = injector
    else:
        net = CanelyNetwork(
            node_count=node_count,
            config=CONFIG,
            injector=injector,
            segments=2 if topology == "segments" else 1,
            gateway_latency=latency,
        )
    net.join_all()
    net.run_for(ms(150))
    net.sim.schedule_at(crash_at, net.node(crash_node).crash)
    net.run_for(ms(250))
    observed = _observables(net.sim, net.buses)
    observed["views"] = {
        node.node_id: sorted(node.view().members) for node in net.correct_nodes()
    }
    return observed


@SLOW
@given(network_scenarios())
@example((5, "bus", 0, 1, ms(200), (MessageType.FDA, 0)))
@example((5, "segments", 0, 1, ms(200), (MessageType.FDA, 0)))
@example((5, "segments", us(50), 1, ms(200), (MessageType.FDA, 0)))
@example((5, "channels", 0, 1, ms(200), (MessageType.FDA, 0)))
def test_two_event_cycle_matches_three_on_protocol_stacks(scenario):
    _assert_cycles_agree(lambda: _run_network_scenario(scenario))


def _run_zero_latency_relay():
    """Node 0 sends a remote frame on the source segment; node 1 submits the
    same frame on the target at the instant node 0's frame completes, which
    is also the instant the gateway relays it there with no latency."""
    sim = Simulator()
    source, target = CanBus(sim), CanBus(sim)
    gateway = CanGateway(sim)
    gateway.attach(source)
    gateway.attach(target)
    layers = []
    for node_id, bus in enumerate((source, target)):
        controller = CanController(node_id)
        bus.attach(controller)
        layers.append(CanStandardLayer(controller))
    mid = MessageId(MessageType.FDA, node=5)
    layers[0].rtr_req(mid)
    frame_bits = remote_frame(mid).wire_bits(with_interframe=False)
    sim.schedule_at(
        frame_bits * source.timing.bit_time, lambda: layers[1].rtr_req(mid)
    )
    sim.run()
    return _observables(sim, [source, target])


def test_a_zero_latency_relay_misses_an_arbitration_scheduled_at_its_instant():
    """The relay is an event of its own at the instant its frame completed.
    The target's arbitration at that instant was scheduled first, by node
    1's request, so it fires before the relay: node 1's frame goes out
    alone and the relayed copy follows, on both cycles."""
    run = _run_zero_latency_relay()
    senders = [
        row["data"]["senders"] for row in run["trace"] if row["category"] == "bus.tx"
    ]
    assert senders[:2] == [[0], [1]]
    assert [GATEWAY_NODE_ID] in senders
    _assert_cycles_agree(_run_zero_latency_relay)


def _run_request_after_the_slots_turn():
    """A request submitted at the end of an interframe space by an event
    scheduled after the frame's completion: the start-of-frame slot's turn
    has come, but its arbitration has not fired yet. That event also
    schedules, with zero delay, an identical remote frame from another
    node, which comes after the arbitration and so cannot cluster."""
    sim = Simulator()
    bus = CanBus(sim)
    layers = []
    for node_id in range(3):
        controller = CanController(node_id)
        bus.attach(controller)
        layers.append(CanStandardLayer(controller))
    mid = MessageId(MessageType.FDA, node=5)
    sof_ticks = INTERFRAME_BITS * bus.timing.bit_time

    def request():
        sim.schedule(0, lambda: layers[2].rtr_req(mid))
        layers[1].rtr_req(mid)

    def on_data(_mid, _data):
        # After the completion: this event's request follows the slot.
        sim.schedule(0, lambda: sim.schedule_at(sim.now + sof_ticks, request))

    layers[1].add_data_ind(on_data)
    layers[0].data_req(MessageId(MessageType.DATA, node=0), b"")
    sim.run()
    return _observables(sim, [bus])


def test_a_request_after_the_slots_turn_takes_its_arbitration():
    run = _run_request_after_the_slots_turn()
    senders = [
        row["data"]["senders"] for row in run["trace"] if row["category"] == "bus.tx"
    ]
    assert senders == [[0], [1], [2]]
    _assert_cycles_agree(_run_request_after_the_slots_turn)
