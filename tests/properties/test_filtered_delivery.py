"""Property: heap arbitration and planned delivery are observation-identical
to the paper's scan and broadcast.

The bus arbitrates by popping a ready heap the controllers keep up to date,
and delivers through a cached plan per kind of frame: baked listener
upcalls, the failure detectors' surveillance told once per frame through
its collective form — with span tracing off and on alike. The oracle is the
pair of references the tests keep: ``tests/arbitration_reference.py`` polls
every controller's queue head and orders the offers, and
``tests/broadcast_reference.py`` hands each frame to every alive controller
and upcalls every receiver for itself. An error frame's accepting subset is
delivered the same way, so it is judged too. The contract is that heap and
plan are pure mechanism changes and that watching them changes nothing:
whatever the traffic, the churn (a listener registered mid-run, which drops
the plans, included) and the injected faults, heap + plan with spans off,
heap + plan with spans on and scan + broadcast must produce byte-identical
traces, identical delivery logs, identical bus accounting and the same
number of kernel events; and with spans on, the heap and the scan must
record the same spans — one ``arb-loss`` event per losing head per round
included. Hypothesis drives randomized schedules through every mode and
compares the full fingerprint; the explicit examples pin the corners the
random draws may miss (same-identifier contention, ``clustering=False``,
inaccessibility, bus-off and crashes with requests queued, aborted heads,
a listener registered once the plans are warm).
"""

from arbitration_reference import scan_arbitration
from broadcast_reference import broadcast_delivery
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.can.bus import CanBus
from repro.can.controller import BUS_OFF_THRESHOLD, CanController
from repro.can.driver import CanStandardLayer
from repro.can.errormodel import FaultInjector, FaultKind
from repro.can.identifiers import MessageId, MessageType
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.errors import BusError
from repro.sim.clock import ms
from repro.sim.kernel import Simulator
from repro.sim.trace import record_to_dict
from repro.workloads import PeriodicSource

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _spans(sim):
    return [
        (s.name, s.category, s.node, s.start, s.end, s.parent, s.attrs, s.events)
        for s in sim.spans
    ]


def _assert_modes_agree(scenario):
    """``scenario(spans)`` four ways — heap + plan, heap + plan with spans
    on, scan + plan with spans on, scan + broadcast — must leave the same
    fingerprint (the spans of the two span-on runs included)."""
    planned = scenario(False)
    observed = scenario(True)
    with scan_arbitration():
        scanned = scenario(True)
        with broadcast_delivery():
            reference = scenario(False)
    assert planned == reference
    assert observed == scanned
    assert {**observed, "spans": []} == reference


# -- raw bus with random traffic and churn -------------------------------------

# A victim's own frames carry refs past the random traffic's 0-3, so a fault
# scripted on them hits nobody else.
_VICTIM_REF = 5


@st.composite
def bus_schedules(draw):
    node_count = draw(st.integers(min_value=2, max_value=5))
    node = st.integers(min_value=0, max_value=node_count - 1)
    at = st.integers(min_value=0, max_value=ms(2))
    # The identifier's node field is drawn apart from the sender, so two
    # controllers can contend with one identifier: bit-identical frames,
    # a data and a remote frame, or two different data frames.
    submissions = draw(
        st.lists(
            st.tuples(
                node,  # sender
                node,  # the identifier's node field
                st.integers(min_value=0, max_value=3),  # ref
                st.booleans(),  # remote frame?
                at,  # submit time
                st.sampled_from([b"", b"\x01", b"\x01\x02"]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    # Churn: maybe crash one node mid-run (and bring it back by writing
    # ``crashed``); maybe register one more listener on one node mid-run
    # (plan invalidation), a collected ``.nty`` one or a per-node ``.ind``.
    crash = draw(st.none() | st.tuples(node, at, st.none() | at))
    listen = draw(st.none() | st.tuples(node, at, st.booleans()))
    # Error frames, consistent or inconsistent: an inconsistent omission's
    # accepting subset is any set of node ids — senders and crashed nodes
    # included.
    faults = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),  # transmission index
                st.none() | st.frozensets(node),
                st.booleans(),  # crash the sender(s)?
            ),
            max_size=2,
        )
    )
    clustering = draw(st.booleans())
    # Inaccessibility windows: (opening time, bits).
    windows = draw(
        st.lists(st.tuples(at, st.integers(min_value=1, max_value=300)), max_size=2)
    )
    # Bus-off with requests still queued: at ``at`` the victim's TEC sits at
    # the threshold and it queues two frames; the first errors, takes the
    # victim bus-off and leaves the second queued. It comes back by the
    # bus's recovery sequence, by a write of ``tec``, or not at all.
    bus_off = draw(st.none() | st.tuples(node, at, st.none() | at))
    bus_off_recovery = draw(st.booleans())
    # Aborts: (submission index, delay after that submission).
    aborts = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=ms(1)),
            ),
            max_size=2,
        )
    )
    return (
        node_count, submissions, crash, listen, faults, clustering, windows,
        bus_off, bus_off_recovery, aborts,
    )


def _collective_nty(mid, listeners):
    # A collective form by contract: the listeners' effect, all at once.
    for listener in listeners:
        listener(mid)


def _run_bus_scenario(schedule, spans):
    (
        node_count, submissions, crash, listen, faults, clustering, windows,
        bus_off, bus_off_recovery, aborts,
    ) = schedule
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
    sim.spans.enabled = spans
    bus = CanBus(
        sim, injector=injector, clustering=clustering,
        bus_off_recovery=bus_off_recovery,
    )
    layers = {}
    controllers = {}
    received = {node_id: [] for node_id in range(node_count)}
    for node_id in range(node_count):
        controller = CanController(node_id)
        bus.attach(controller)
        controllers[node_id] = controller
        layers[node_id] = CanStandardLayer(controller)
        log = received[node_id]
        layers[node_id].add_data_ind(
            lambda mid, data, log=log: log.append(("data", mid.node, mid.ref, data))
        )
        layers[node_id].add_rtr_ind(
            lambda mid, log=log: log.append(("rtr", mid.node, mid.ref))
        )
        layers[node_id].add_data_nty(
            lambda mid, log=log: log.append(("nty", mid.node, mid.ref)),
            collective=_collective_nty,
        )

    def request(sender, mid, remote, payload):
        if remote:
            layers[sender].rtr_req(mid)
        else:
            layers[sender].data_req(mid, payload)

    for sender, mid_node, ref, remote, at, payload in submissions:
        mid = MessageId(MessageType.DATA, node=mid_node, ref=ref)
        sim.schedule_at(
            at, lambda s=sender, m=mid, r=remote, p=payload: request(s, m, r, p)
        )
    for index, delay in aborts:
        if index < len(submissions):
            sender, mid_node, ref, _remote, at, _payload = submissions[index]
            mid = MessageId(MessageType.DATA, node=mid_node, ref=ref)
            sim.schedule_at(at + delay, lambda s=sender, m=mid: layers[s].abort_req(m))
    if crash is not None:
        node_id, at, revive_at = crash
        sim.schedule_at(at, controllers[node_id].crash)
        if revive_at is not None:
            sim.schedule_at(
                at + revive_at,
                lambda c=controllers[node_id]: setattr(c, "crashed", False),
            )
    if bus_off is not None:
        victim, at, revive_at = bus_off
        victim_mid = MessageId(MessageType.DATA, node=victim, ref=_VICTIM_REF)
        injector.fault_on_frame(
            lambda frame: frame.mid == victim_mid, FaultKind.CONSISTENT_OMISSION
        )

        def strain(c=controllers[victim], layer=layers[victim]):
            c.tec = BUS_OFF_THRESHOLD
            layer.data_req(victim_mid, b"")
            layer.rtr_req(MessageId(MessageType.DATA, node=victim, ref=_VICTIM_REF + 1))

        sim.schedule_at(at, strain)
        if revive_at is not None:
            sim.schedule_at(
                at + revive_at,
                lambda c=controllers[victim]: setattr(c, "tec", 0),
            )
    for at, bits in windows:
        sim.schedule_at(at, lambda b=bits: bus.inject_inaccessibility(b))
    if listen is not None:
        node_id, at, collected = listen
        layer, log = layers[node_id], received[node_id]
        if collected:
            sim.schedule_at(
                at,
                lambda: layer.add_data_nty(
                    lambda mid: log.append(("late-nty", mid.node, mid.ref)),
                    collective=_collective_nty,
                ),
            )
        else:
            sim.schedule_at(
                at,
                lambda: layer.add_data_ind(
                    lambda mid, data: log.append(("late-ind", mid.node, data))
                ),
            )
    bus_error = None
    try:
        sim.run()
    except BusError as exc:
        bus_error = str(exc)
    return {
        "bus_error": bus_error,
        "trace": [record_to_dict(record) for record in sim.trace],
        "spans": _spans(sim),
        "received": received,
        "events": sim.events_processed,
        "physical_frames": bus.stats.physical_frames,
        "clustered": bus.stats.clustered_requests,
        "error_frames": bus.stats.error_frames,
        "busy_bits": bus.stats.busy_bits,
        "bits_by_type": dict(bus.stats.bits_by_type),
        "rec": {n: c.rec for n, c in controllers.items()},
        "tec": {n: c.tec for n, c in controllers.items()},
        "queued": {n: c.queue_depth for n, c in controllers.items()},
        "crashed": sorted(n for n, c in controllers.items() if c.crashed),
    }


def _schedule(node_count, submissions, **churn):
    """A raw-bus schedule: no churn but what ``churn`` names."""
    fields = dict(
        crash=None, listen=None, faults=[], clustering=True, windows=[],
        bus_off=None, bus_off_recovery=False, aborts=[],
    )
    fields.update(churn)
    return (
        node_count, submissions, fields["crash"], fields["listen"],
        fields["faults"], fields["clustering"], fields["windows"],
        fields["bus_off"], fields["bus_off_recovery"], fields["aborts"],
    )


# Node 2 holds the bus with a long frame while the rest queue up, so every
# submission at time 1 meets the others in one arbitration.
_HOLD = (2, 2, 3, False, 0, b"\x01\x02")

#: The arbitration corners, each forced by one schedule.
REACH = {
    "data-and-remote-one-identifier": _schedule(
        3, [_HOLD, (0, 1, 0, True, 1, b""), (1, 1, 0, False, 1, b"\x01")]
    ),
    "two-data-frames-one-identifier": _schedule(
        3, [_HOLD, (0, 1, 0, False, 1, b""), (1, 1, 0, False, 1, b"\x01")]
    ),
    "identical-frames-unclustered": _schedule(
        4,
        [_HOLD, (0, 1, 0, True, 1, b""), (1, 1, 0, True, 1, b""),
         (3, 1, 0, True, 1, b"")],
        clustering=False,
    ),
    "inaccessibility-window": _schedule(
        3, [_HOLD, (0, 0, 0, False, 1, b""), (1, 1, 0, True, 1, b"")],
        windows=[(1, 200)],
    ),
    "bus-off-queued-recovered": _schedule(
        3, [_HOLD, (1, 1, 0, False, ms(1), b"")],
        bus_off=(0, 1, None), bus_off_recovery=True,
    ),
    "bus-off-queued-for-good": _schedule(
        3, [_HOLD, (1, 1, 0, False, ms(1), b"")], bus_off=(0, 1, None),
    ),
    "bus-off-queued-tec-written": _schedule(
        3, [_HOLD, (1, 1, 0, False, ms(1), b"")], bus_off=(0, 1, ms(1)),
    ),
    "crash-queued-revived": _schedule(
        3,
        [_HOLD, (0, 0, 0, False, 1, b""), (0, 0, 1, True, 1, b""),
         (0, 0, 2, False, ms(1), b"")],
        crash=(0, 2, ms(1) - 3),
    ),
    "abort-of-the-head": _schedule(
        3,
        [_HOLD, (0, 0, 0, False, 1, b""), (0, 0, 1, False, 1, b""),
         (1, 1, 0, False, 1, b"")],
        aborts=[(1, 1)],
    ),
    "nty-listener-registered-mid-run": _schedule(
        3, [_HOLD, (0, 0, 0, False, ms(1), b"")], listen=(1, ms(1) // 2, True),
    ),
    "ind-listener-registered-mid-run": _schedule(
        3, [_HOLD, (0, 0, 0, False, ms(1), b"")], listen=(1, ms(1) // 2, False),
    ),
}


@SLOW
@given(bus_schedules())
@example(REACH["data-and-remote-one-identifier"])
@example(REACH["two-data-frames-one-identifier"])
@example(REACH["identical-frames-unclustered"])
@example(REACH["inaccessibility-window"])
@example(REACH["bus-off-queued-recovered"])
@example(REACH["bus-off-queued-for-good"])
@example(REACH["bus-off-queued-tec-written"])
@example(REACH["crash-queued-revived"])
@example(REACH["abort-of-the-head"])
@example(REACH["nty-listener-registered-mid-run"])
@example(REACH["ind-listener-registered-mid-run"])
def test_filtered_delivery_matches_broadcast_on_raw_bus(schedule):
    _assert_modes_agree(lambda spans: _run_bus_scenario(schedule, spans))


def _sent(run, node):
    """``(mid, remote)`` of every frame ``node`` sent or joined, in bus order."""
    return [
        (row["data"]["mid"], row["data"]["remote"])
        for row in run["trace"]
        if row["category"] == "bus.tx" and node in row["data"]["senders"]
    ]


def _mid(node, ref):
    return repr(MessageId(MessageType.DATA, node=node, ref=ref))


def test_the_explicit_examples_reach_their_corner():
    """Each ``REACH`` schedule does what its name says, so the property
    above covers it whatever Hypothesis draws."""
    runs = {
        name: _run_bus_scenario(schedule, True) for name, schedule in REACH.items()
    }
    # The data frame wins, the remote frame with its identifier goes next.
    run = runs["data-and-remote-one-identifier"]
    assert run["bus_error"] is None
    assert _sent(run, 1) == [(_mid(1, 0), False)]
    assert _sent(run, 0) == [(_mid(1, 0), True)]
    assert "different data frames" in runs["two-data-frames-one-identifier"]["bus_error"]
    # Unclustered, three identical frames go out one by one: two heads lose
    # the first round, one the second.
    run = runs["identical-frames-unclustered"]
    assert run["clustered"] == 0 and run["physical_frames"] == 4
    losses = [label for *_, events in run["spans"] for _t, label in events]
    assert losses.count("arb-loss") == 3
    run = runs["inaccessibility-window"]
    assert any(row["category"] == "bus.inaccessible" for row in run["trace"])
    for name, recovered, still_queued in (
        ("bus-off-queued-recovered", True, 0),
        ("bus-off-queued-for-good", False, 1),
        ("bus-off-queued-tec-written", False, 0),
    ):
        run = runs[name]
        # The victim went bus-off with its remote frame still queued ...
        assert run["error_frames"] == 1, name
        assert run["queued"][0] == still_queued, name
        recoveries = [
            row for row in run["trace"] if row["category"] == "node.bus_off_recovery"
        ]
        assert bool(recoveries) is recovered, name
        # ... and, once back up, offered it again.
        expected = [(_mid(0, _VICTIM_REF), False)]
        if not still_queued:
            expected.append((_mid(0, _VICTIM_REF + 1), True))
        assert _sent(run, 0) == expected, name
    # The queue died with the crash; the revived node sends what it submits
    # anew.
    assert _sent(runs["crash-queued-revived"], 0) == [(_mid(0, 2), False)]
    # Aborting the head lets the next request offer.
    assert _sent(runs["abort-of-the-head"], 0) == [(_mid(0, 1), False)]
    # A listener registered after the first frame warmed the plans hears
    # the second frame only.
    for kind, late in (
        ("nty", ("late-nty", 0, 0)),
        ("ind", ("late-ind", 0, b"")),
    ):
        heard = runs[f"{kind}-listener-registered-mid-run"]["received"][1]
        assert [entry for entry in heard if entry[0].startswith("late")] == [late]


# -- full protocol stack under churn and inconsistent omissions ---------------


CONFIG = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


@st.composite
def network_scenarios(draw):
    node_count = draw(st.integers(min_value=3, max_value=6))
    crash_node = draw(st.integers(min_value=0, max_value=node_count - 1))
    crash_at = draw(st.integers(min_value=ms(150), max_value=ms(300)))
    leave = draw(st.booleans())
    fault_accepting = draw(
        st.none() | st.integers(min_value=0, max_value=node_count - 1)
    )
    # ELS and application DATA reach receivers whose only listener is the
    # failure detector's collective form: there the form takes the whole
    # accepting subset.
    fault_mtype = draw(
        st.sampled_from([MessageType.FDA, MessageType.ELS, MessageType.DATA])
    )
    talker = draw(st.integers(min_value=0, max_value=node_count - 1))
    # The crashed node may reboot (``recover()``) and join again.
    recover = draw(st.booleans())
    return (
        node_count, crash_node, crash_at, leave, fault_accepting, fault_mtype,
        talker, recover,
    )


def _reboot(node):
    node.recover()
    node.join()


def _run_network_scenario(scenario, spans):
    (
        node_count, crash_node, crash_at, leave, fault_accepting, fault_mtype,
        talker, recover,
    ) = scenario
    injector = FaultInjector()
    if fault_accepting is not None:
        injector.fault_on_frame(
            lambda f: f.mid.mtype is fault_mtype,
            FaultKind.INCONSISTENT_OMISSION,
            accepting=[fault_accepting],
        )
    net = CanelyNetwork(
        node_count=node_count, config=CONFIG, injector=injector, spans=spans
    )
    PeriodicSource(net.sim, net.node(talker), period=ms(20), offset=ms(1))
    net.join_all()
    net.run_for(ms(150))
    if leave and node_count > 2:
        net.node((crash_node + 1) % node_count).leave()
    net.sim.schedule_at(crash_at, net.node(crash_node).crash)
    if recover:
        net.sim.schedule_at(crash_at + ms(40), lambda: _reboot(net.node(crash_node)))
    net.run_for(ms(350))
    views = {}
    for node in net.correct_nodes():
        view = node.view()
        views[node.node_id] = (sorted(view.members), view.round_index)
    return {
        "trace": [record_to_dict(record) for record in net.sim.trace],
        "spans": _spans(net.sim),
        "events": net.sim.events_processed,
        "physical_frames": net.bus.stats.physical_frames,
        "error_frames": net.bus.stats.error_frames,
        "busy_bits": net.bus.stats.busy_bits,
        "views": views,
    }


@SLOW
@given(network_scenarios())
def test_filtered_delivery_matches_broadcast_on_protocol_stack(scenario):
    _assert_modes_agree(lambda spans: _run_network_scenario(scenario, spans))


# -- bridged multi-segment networks, both backends ----------------------------

# Each example runs a full bridged network four times (two backends would
# double it again), so the segmented property uses a smaller budget.
SLOW_SEGMENTED = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def segmented_scenarios(draw):
    node_count = draw(st.integers(min_value=4, max_value=8))
    segments = draw(st.integers(min_value=2, max_value=3))
    backend = draw(st.sampled_from(["canely", "swim"]))
    crash_node = draw(st.integers(min_value=0, max_value=node_count - 1))
    crash_at = draw(st.integers(min_value=ms(150), max_value=ms(300)))
    return node_count, segments, backend, crash_node, crash_at


def _run_segmented_scenario(scenario, spans):
    node_count, segments, backend, crash_node, crash_at = scenario
    net = CanelyNetwork(
        node_count=node_count,
        config=CONFIG,
        backend=backend,
        segments=segments,
        spans=spans,
    )
    net.join_all()
    net.run_for(ms(150))
    net.sim.schedule_at(crash_at, net.node(crash_node).crash)
    net.run_for(ms(350))
    views = {}
    for node in net.correct_nodes():
        view = node.view()
        views[node.node_id] = (sorted(view.members), view.round_index)
    return {
        "trace": [record_to_dict(record) for record in net.sim.trace],
        "spans": _spans(net.sim),
        "events": net.sim.events_processed,
        "per_segment": [
            (bus.stats.physical_frames, bus.stats.busy_bits)
            for bus in net.buses
        ],
        "gateway": (net.gateway.stats.forwarded, net.gateway.stats.dropped),
        "views": views,
    }


@SLOW_SEGMENTED
@given(segmented_scenarios())
def test_filtered_delivery_matches_broadcast_across_segments(scenario):
    # The gateway's relay traffic, its ports contending on every segment,
    # and plan invalidation on attach must be mechanism-transparent too,
    # for either membership backend.
    _assert_modes_agree(lambda spans: _run_segmented_scenario(scenario, spans))
