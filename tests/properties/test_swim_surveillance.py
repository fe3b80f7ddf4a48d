"""Property: SWIM on the shared table is SWIM on per-pair alarms.

SWIM's ``fail_after`` silence clocks are rows of the simulation's one
``SurveillanceTable``, and a heartbeat everybody agrees about, like an echoed
SUSPECT or CONFIRM that is moot at every receiver and a frame that admits
its sender everywhere, is answered once per frame (``SwimHearing``, the
collective form of ``_on_swim``), with memos that outlive a halted node.
The oracle is the protocol the way it was written first: every receiver
upcalled for itself (``tests/broadcast_reference.py``), one private alarm
per (observer, subject) pair (``tests/per_pair_reference.py``). Whatever
the configuration —
explicit durations or ``SwimConfig.from_canely``, whose ``fail_after ==
suspicion_timeout`` puts a suspicion alarm on the very tick of the silence
clocks restarted around it — the drifts, the crashes, leaves and rejoins,
the omissions, the inaccessibility and the bridged segments, the run on plan
+ table, the same with spans on and the oracle must leave byte-identical
trace rows, views and bus accounting; the first two also the same number of
kernel events (the oracle fires expiries per pair, not per group).
"""

import pytest
from broadcast_reference import broadcast_delivery
from hypothesis import HealthCheck, given, settings, strategies as st
from per_pair_reference import per_pair_surveillance

from repro.can.errormodel import FaultInjector, FaultKind
from repro.can.identifiers import MessageType
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.sim.clock import ms, us
from repro.sim.timers import SurveillanceTable
from repro.sim.trace import record_to_dict
from repro.swim.config import SwimConfig
from repro.swim.protocol import (
    ALIVE, CONFIRM, HEARTBEAT, SUSPECT, SUSPECTED, SwimHearing, SwimProtocol,
)

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_CANELY = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))

CONFIGS = (
    SwimConfig(
        capacity=16, probe_period=ms(10), fail_after=ms(30),
        suspicion_timeout=ms(20), join_wait=ms(150),
    ),
    SwimConfig(
        capacity=16, probe_period=ms(10), fail_after=ms(14),
        suspicion_timeout=ms(25), join_wait=ms(150), auto_rejoin=False,
    ),
    # The tie: fail_after == suspicion_timeout (thb + ttd, 16 ms).
    SwimConfig.from_canely(_CANELY),
    SwimConfig.from_canely(_CANELY, probe_period=ms(8), fail_after=ms(11),
                           suspicion_timeout=ms(11)),
)

#: Mostly exact clocks, realistic ppm drifts, and two clocks fast or slow
#: enough to time out before (after) everybody else does.
DRIFTS = (0.0, 0.0, 0.0, 1e-4, -1e-4, 2e-3, -0.05, -0.3)


@st.composite
def swim_scenarios(draw):
    node_count = draw(st.integers(min_value=3, max_value=8))
    nodes = st.integers(min_value=0, max_value=node_count - 1)
    config = draw(st.sampled_from(range(len(CONFIGS))))
    drifts = draw(
        st.lists(st.sampled_from(DRIFTS), min_size=node_count, max_size=node_count)
    )
    actions = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=ms(150), max_value=ms(400)),
                st.sampled_from(["crash", "leave", "rejoin"]),
                nodes,
            ),
            max_size=4,
        )
    )
    faults = draw(
        st.lists(
            st.tuples(
                nodes,  # whose SWIM frame (the next one it sends after ...
                st.integers(min_value=0, max_value=250),  # ... this many)
                st.booleans(),  # inconsistent?
                st.lists(nodes, max_size=3),  # the accepting subset
                st.booleans(),  # the sender dies before it retransmits
            ),
            max_size=3,
        )
    )
    blackout = draw(
        st.none()
        | st.tuples(
            st.integers(min_value=ms(150), max_value=ms(350)),
            st.integers(min_value=2_000, max_value=40_000),
        )
    )
    segments = draw(st.sampled_from((1, 1, 2)))
    return node_count, config, drifts, actions, faults, blackout, segments


def _rejoin(node):
    if node.crashed:
        node.recover()
    node.join()


def _run_swim_scenario(scenario, spans):
    node_count, config, drifts, actions, faults, blackout, segments = scenario
    injector = FaultInjector()
    for sender, skip, inconsistent, accepting, crash_sender in faults:
        seen = [0]

        def matches(frame, sender=sender, skip=skip, seen=seen):
            mid = frame.mid
            if mid.mtype is not MessageType.SWIM or mid.node != sender:
                return False
            seen[0] += 1
            return seen[0] > skip

        injector.fault_on_frame(
            matches,
            FaultKind.INCONSISTENT_OMISSION
            if inconsistent
            else FaultKind.CONSISTENT_OMISSION,
            accepting=[node for node in accepting if node != sender],
            crash_sender=inconsistent and crash_sender,
        )
    net = CanelyNetwork(
        node_count,
        config=CONFIGS[config],
        backend="swim",
        injector=injector,
        timer_drifts=dict(enumerate(drifts)),
        spans=spans,
        segments=segments,
    )
    net.join_all()
    for at, action, node_id in actions:
        node = net.node(node_id)
        net.sim.schedule_at(
            at,
            (lambda node=node: _rejoin(node))
            if action == "rejoin"
            else getattr(node, action),
        )
    if blackout is not None:
        at, bits = blackout
        net.sim.schedule_at(at, lambda: net.bus.inject_inaccessibility(bits))
    net.run_for(ms(550))
    views = {}
    for node in net.correct_nodes():
        view = node.view()
        views[node.node_id] = (sorted(view.members), view.round_index)
    return {
        "trace": [record_to_dict(record) for record in net.sim.trace],
        "views": views,
        "physical_frames": [bus.stats.physical_frames for bus in net.buses],
        "error_frames": [bus.stats.error_frames for bus in net.buses],
        "busy_bits": [bus.stats.busy_bits for bus in net.buses],
        "omissions": injector.omissions_injected,
        "stats": {node_id: node.stats() for node_id, node in net.nodes.items()},
    }, net.sim.events_processed


def _assert_table_is_per_pair(scenario):
    planned, planned_events = _run_swim_scenario(scenario, False)
    observed, observed_events = _run_swim_scenario(scenario, True)
    with broadcast_delivery(), per_pair_surveillance():
        reference, _ = _run_swim_scenario(scenario, False)
    assert planned == reference
    assert observed == reference
    assert observed_events == planned_events
    return reference


@SLOW
@given(swim_scenarios())
def test_swim_on_the_table_matches_per_pair_alarms(scenario):
    _assert_table_is_per_pair(scenario)


def _crash(node_count, config, victim, segments=1):
    return (
        node_count, config, [0.0] * node_count, [(ms(200), "crash", victim)],
        [], None, segments,
    )


#: id -> (scenario, whether the echoes of a SUSPECT or CONFIRM are heard
#: collectively). Node 0's clock runs fast in the omission example: its
#: SUSPECT about the crashed node 4 (its 32nd SWIM frame) reaches nodes 1
#: and 2 only, and node 0 dies before retransmitting, so node 3 holds node 4
#: ALIVE until its own clock runs out. In the lone-survivor example node 0
#: suspects and confirms nodes 1 and 2 with nobody joined to hear it: its
#: memo's incarnation is ``None``.
COLLECTIVE_EXAMPLES = {
    "four-observers": (_crash(5, 0, 4), True),
    "four-observers-no-rejoin": (_crash(5, 1, 4), True),
    "four-observers-tie": (_crash(5, 2, 4), True),
    "suspect-omitted-at-one": (
        (
            5, 0, [-0.3, 0.0, 0.0, 0.0, 0.0], [(ms(200), "crash", 4)],
            [(0, 31, True, [1, 2], True)], None, 1,
        ),
        False,
    ),
    "two-segments": (_crash(8, 0, 6, segments=2), True),
    "two-segments-tie": (_crash(8, 3, 6, segments=2), True),
    "lone-survivor": (
        (
            3, 0, [0.0] * 3, [(ms(200), "crash", 1), (ms(200), "crash", 2)],
            [], None, 1,
        ),
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(COLLECTIVE_EXAMPLES))
def test_echoed_suspicions_heard_at_once_match_per_pair_alarms(monkeypatch, name):
    """The collective answer to a SUSPECT or CONFIRM frame every receiver
    takes to no effect (``SwimProtocol._moot``) is the per-node one."""
    scenario, collective = COLLECTIVE_EXAMPLES[name]
    answered = []
    heard = SurveillanceTable.heard

    def counted(table, mid, listeners):
        if mid.ref >> 8 in (SUSPECT, CONFIRM):
            answered.append(mid)
        return heard(table, mid, listeners)

    monkeypatch.setattr(SurveillanceTable, "heard", counted)
    _assert_table_is_per_pair(scenario)
    assert bool(answered) == collective, answered


#: id -> (scenario, collective admission passes per run). Six nodes; the
#: JOINs of ``join_all`` go out at 88, 177, 267, 357, 446 and 536 us. Node 4
#: crashing at 300 us has heard three JOINs and never sends its own: the
#: memos of the first three go on without it. Node 4 rejoining after its
#: crash is admitted by everybody at once again. Node 3 leaving stays on the
#: bus, no longer joined. Node 2's clock drifts: the watches an admission
#: starts fill two groups, which settle as one memo. A 15,251-bit
#: inaccessibility at 150 ms makes the eight nodes confirm each other dead:
#: their later frames are stale traffic from a dead incarnation, which no
#: receiver admits.
ADMISSION_EXAMPLES = {
    "join": ((6, 0, [0.0] * 6, [], [], None, 1), 6),
    "crash-in-bootstrap": (
        (6, 0, [0.0] * 6, [(us(300), "crash", 4)], [], None, 1), 5
    ),
    "crash-rejoin-crash": (
        (
            6, 0, [0.0] * 6,
            [(ms(200), "crash", 4), (ms(300), "rejoin", 4), (ms(400), "crash", 4)],
            [], None, 1,
        ),
        7,
    ),
    "crash-rejoin-crash-tie": (
        (
            6, 2, [0.0] * 6,
            [(ms(200), "crash", 4), (ms(300), "rejoin", 4), (ms(400), "crash", 4)],
            [], None, 1,
        ),
        7,
    ),
    "leave": ((6, 0, [0.0] * 6, [(ms(200), "leave", 3)], [], None, 1), 6),
    "drifted-node": (
        (6, 0, [0.0, 0.0, 1e-4, 0.0, 0.0, 0.0], [(ms(200), "crash", 4)], [], None, 1),
        6,
    ),
    "stale-after-inaccessibility": (
        (8, 3, [0.0] * 8, [], [], (ms(150), 15251), 1), 9
    ),
}


@pytest.mark.parametrize("name", sorted(ADMISSION_EXAMPLES))
def test_admissions_heard_at_once_match_per_pair_alarms(monkeypatch, name):
    """A frame that admits its sender at every joined receiver is one
    collective pass (``SwimHearing._admit_all``), and a halted node's
    listener and clock leave the memos (``SwimHearing.halted``): the run is
    the per-node, per-pair one, with span tracing off and on."""
    scenario, expected = ADMISSION_EXAMPLES[name]
    passes = {False: 0, True: 0}
    admit_all = SwimHearing._admit_all

    def counted(hearing, sender, incarnation, listeners):
        collective = admit_all(hearing, sender, incarnation, listeners)
        passes[hearing._table._spans.enabled] += collective
        return collective

    monkeypatch.setattr(SwimHearing, "_admit_all", counted)
    _assert_table_is_per_pair(scenario)
    assert passes == {False: expected, True: expected}


def test_the_coinciding_suspicion_alarm_keeps_its_place():
    """``from_canely``'s tie, constructed. Node 0's heartbeat at 200 ms is
    taken by 2, 3 and 4 but not by node 1, and node 0 dies before it
    retransmits; node 1 therefore times out alone and its SUSPECT frame
    finds 2, 3 and 4 holding node 0 ALIVE: each restarts node 1's silence
    clock and then starts a suspicion alarm for node 0 due at the very same
    tick. Node 1 crashes too, so at that tick both fire at all three: per-pair
    alarms in the order they were armed — suspect 1, confirm 0, node by node —
    and so must the table's groups."""
    scenario = (
        5, 2, [0.0] * 5,
        [(ms(207), "crash", 1)],
        [(0, 20, True, [2, 3, 4], True)],
        None,
        1,
    )
    reference = _assert_table_is_per_pair(scenario)
    tick = [
        (row["category"], row["node"])
        for row in reference["trace"]
        if row["time"] == 222_193_000 and row["category"].startswith("swim.")
    ]
    assert tick == [
        ("swim.suspect", 2), ("swim.confirm", 2),
        ("swim.suspect", 3), ("swim.confirm", 3),
        ("swim.suspect", 4), ("swim.confirm", 4),
    ]


def test_a_gateway_port_ahead_of_the_receivers_keeps_its_turn():
    """The hearing is called where its first member stands in the delivery
    order, not ahead of everything: a gateway port attached before the nodes
    drops (``gw.drop``, a one-deep queue) before the receivers write the
    rows of the frame it could not relay, as it does under broadcast."""

    def run():
        net = CanelyNetwork(
            12, config=_CANELY, backend="swim", segments=3, gateway_queue_limit=1
        )
        net.join_all()
        net.sim.schedule_at(ms(200), net.node(4).crash)
        net.run_for(ms(400))
        return [record_to_dict(record) for record in net.sim.trace]

    planned = run()
    with broadcast_delivery(), per_pair_surveillance():
        reference = run()
    assert planned == reference
    assert sum(row["category"] == "gw.drop" for row in planned) > 100


# -- the per-node path and the memo, by call counts ------------------------------


def test_a_diverging_receiver_pays_per_node_and_the_memo_reforms(monkeypatch):
    """One receiver suspects the sender after an inconsistent omission while
    the rest do not: the next heartbeat revives it at that node only, through
    the per-node path, and the frame after is answered for everybody again."""
    calls = []
    on_swim = SwimProtocol._on_swim

    def counted(self, mid, data):
        calls.append((self._sim.now, self._local, mid.node, mid.ref >> 8))
        return on_swim(self, mid, data)

    monkeypatch.setattr(SwimProtocol, "_on_swim", counted)
    config = SwimConfig(
        capacity=16, probe_period=ms(10), fail_after=ms(14),
        suspicion_timeout=ms(30), join_wait=ms(150),
    )
    # Node 1's clock runs fast (11.2 ms of patience): two milliseconds of
    # inaccessibility make it, and nobody else, suspect everybody. Its first
    # SUSPECT frame — about node 0 — reaches node 4 only, and node 1 is gone
    # before the retransmission.
    injector = FaultInjector()
    injector.fault_on_frame(
        lambda frame: frame.mid.mtype is MessageType.SWIM
        and frame.mid.node == 1
        and frame.mid.ref == (SUSPECT << 8 | 0),
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[4],
        crash_sender=True,
    )
    net = CanelyNetwork(
        5, config=config, backend="swim", injector=injector,
        timer_drifts={1: -0.2},
    )
    net.scenario().bootstrap()
    assert net.sim.now == ms(210)
    del calls[:]
    net.run_for(ms(9))
    assert calls == []  # a settled network answers heartbeats all at once
    net.sim.schedule_at(
        ms(219) + us(900), lambda: net.bus.inject_inaccessibility(2_000)
    )
    net.sim.schedule_at(ms(223), net.node(1).crash)  # the protocol dies too
    net.sim.run_until(ms(225))
    held = {k: net.node(k).protocol._members[0].status for k in (2, 3, 4)}
    assert held == {2: ALIVE, 3: ALIVE, 4: SUSPECTED}
    del calls[:]
    net.sim.run_until(ms(300))
    assert {k: net.node(k).protocol._members[0].status for k in (2, 3, 4)} == {
        2: ALIVE, 3: ALIVE, 4: ALIVE
    }
    heartbeats = [call for call in calls if call[2] == 0 and call[3] == HEARTBEAT]
    revived_at = heartbeats[0][0]
    assert revived_at < ms(231)
    # The next heartbeat of node 0 was heard per node, by every receiver ...
    assert [call[1] for call in heartbeats if call[0] == revived_at] == [0, 2, 3, 4]
    # ... and the seven after it by nobody's ``_on_swim``.
    assert [call for call in heartbeats if call[0] > revived_at] == []
    assert net.node(0).protocol.heartbeats_sent >= 29
    assert net.views_agree() and sorted(net.agreed_view()) == [0, 2, 3, 4]
