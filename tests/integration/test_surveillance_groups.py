"""Surveillance deadlines on a real network: where groups split.

All correct receivers of a CAN frame restart the same deadline, so the
failure detectors of a network share one deadline per group of observers
that heard the same frame (``repro.sim.timers``). These scenarios walk the
cases where observers diverge — an inconsistent omission, different
oscillator drifts, a crash in the middle of a delivery, span tracing
switched on and off mid-run, a late life-sign — and assert per-node
behaviour in ticks.
"""

import pytest
from broadcast_reference import broadcast_delivery

from repro.can.errormodel import FaultInjector, FaultKind
from repro.can.identifiers import MessageId, MessageType
from repro.core.config import CanelyConfig
from repro.core.failure_detector import FailureDetector
from repro.core.stack import CanelyNetwork
from repro.sim.clock import ms
from repro.sim.trace import deliveries, record_to_dict

CONFIG = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))
#: Silence an observer tolerates from a remote node.
REMOTE = CONFIG.thb + CONFIG.ttd


class SilentAgreement:
    """An FDA stand-in that tells nobody: each detector's suspicion stays its
    own, so every observer's expiry is visible instead of the first one's
    failure-sign stopping all the others."""

    def __init__(self, sim, node_id, log):
        self._sim, self._node_id, self._log = sim, node_id, log

    def on_failure_sign(self, callback):
        pass

    def request(self, node_id):
        self._log.append((self._sim.now, self._node_id, node_id))


def detectors_on(net, nodes):
    """Bare failure detectors (no membership above) on a raw bus."""
    suspicions = []
    detectors = {
        node_id: FailureDetector(
            net.layers[node_id],
            net.timers[node_id],
            CONFIG,
            SilentAgreement(net.sim, node_id, suspicions),
        )
        for node_id in nodes
    }
    return detectors, suspicions


def els_transmissions(trace, node):
    """``(time, kind)`` of every ELS frame ``node`` put on the bus."""
    return [
        (record.time, record.data["kind"])
        for record in trace.select(category="bus.tx")
        if record.data["mid"] == MessageId(MessageType.ELS, node=node)
    ]


def last_life_sign(trace, node, until):
    """When ``node`` last showed activity: a data frame or an ELS of its own."""
    return max(
        record.time
        for record in trace.select(category="bus.tx", end=until)
        if record.data["mid"].node == node
        and record.data["kind"] == "none"
        and (
            not record.data["remote"]
            or record.data["mid"].mtype is MessageType.ELS
        )
    )


def test_inconsistent_els_omission_splits_the_observers(raw_bus):
    """The paper's scenario: the sender's life-sign reaches a subset and the
    sender dies before retransmitting. Who accepted it suspects the sender
    ``Thb + Ttd`` after that frame, everybody else after the previous one."""
    injector = FaultInjector()
    net = raw_bus(4, injector=injector)
    injector.fault_on_frame(
        lambda frame: frame.mid == MessageId(MessageType.ELS, node=3)
        and net.sim.now > ms(25),
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[0],
        crash_sender=True,
    )
    detectors, suspicions = detectors_on(net, range(4))
    for detector in detectors.values():
        for node_id in range(4):
            detector.start(node_id)
    net.sim.run_until(ms(60))

    sent = els_transmissions(net.sim.trace, 3)
    assert [kind for _time, kind in sent] == ["none", "none", "inconsistent"]
    previous, faulty = sent[1][0], sent[2][0]
    assert net.controllers[3].crashed
    # One delivery row for the faulty frame: the mask minus the victims.
    assert [
        delivery for delivery in deliveries(net.sim.trace) if delivery[0] == faulty
    ] == [(faulty, 0, MessageId(MessageType.ELS, node=3), True, True)]
    assert [s for s in suspicions if s[2] == 3 and s[1] != 3] == [
        (previous + REMOTE, 1, 3),
        (previous + REMOTE, 2, 3),
        (faulty + REMOTE, 0, 3),
    ]
    # Nobody else was suspected by the three survivors.
    assert {s[2] for s in suspicions if s[1] != 3} == {3}


def test_late_life_sign_rearms_a_spent_watch(raw_bus):
    """A falsely suspected node: the watch fired, stays on, and the node's
    next frame re-arms it."""
    net = raw_bus(2)
    detectors, suspicions = detectors_on(net, [1])
    detectors[1].start(0)  # node 0 runs no detector, hence sends no ELS
    net.sim.run_until(ms(20))
    assert suspicions == [(REMOTE, 1, 0)]
    assert detectors[1].monitoring(0)
    net.layers[0].data_req(MessageId(MessageType.DATA, node=0), b"late")
    net.sim.run_until(ms(21))
    (heard,) = [
        record.time
        for record in net.sim.trace.select(category="bus.tx")
    ]
    net.sim.run_until(ms(60))
    assert suspicions == [(REMOTE, 1, 0), (heard + REMOTE, 1, 0)]
    assert detectors[1].monitored_nodes == [0]


def test_different_drifts_never_share_a_deadline():
    net = CanelyNetwork(
        node_count=4, config=CONFIG, timer_drifts={1: 1e-3, 2: -1e-3}
    )
    net.join_all()
    net.run_for(ms(400))
    heard = last_life_sign(net.sim.trace, 3, until=net.sim.now)
    deadline = {
        node_id: net.node(node_id).detector._watcher.deadline(3)
        for node_id in range(3)
    }
    assert deadline[0] == heard + REMOTE
    assert deadline[1] == heard + round(REMOTE * (1 + 1e-3))
    assert deadline[2] == heard + round(REMOTE * (1 - 1e-3))
    net.run_for(ms(200))
    assert net.views_agree() and sorted(net.agreed_view()) == [0, 1, 2, 3]


# -- a crash in the middle of a delivery ----------------------------------------------


def crash_mid_delivery(crasher, victim, on_els, spans=False):
    """Node 1 talks; ``crasher``'s upcall for one of the frames takes
    ``victim`` down while that frame is still being delivered."""
    net = CanelyNetwork(node_count=4, config=CONFIG, spans=spans)
    net.join_all()
    net.run_for(ms(400))
    armed = [True]
    struck = []

    def strike(*_args):
        if armed[0] and net.sim.now > ms(420):
            armed[0] = False
            struck.append(net.sim.now)
            net.node(victim).crash()

    if on_els:
        # Nothing but the detectors listens to life-signs, so during an ELS
        # delivery the victim is a node the bus does not visit at all.
        net.node(crasher).layer.add_rtr_ind(strike, mtype=MessageType.ELS)
    else:
        net.node(crasher).on_message(strike)
        net.sim.schedule_at(ms(425), lambda: net.node(1).send(b"go"))
    net.run_for(ms(200))
    return net, struck


@pytest.mark.parametrize("on_els", [False, True], ids=["data", "els"])
@pytest.mark.parametrize(
    "crasher, victim", [(0, 2), (3, 1)], ids=["later", "earlier"]
)
def test_crash_by_another_recipients_upcall(crasher, victim, on_els):
    net, struck = crash_mid_delivery(crasher, victim, on_els)
    (instant,) = struck
    took = {d[1] for d in deliveries(net.sim.trace) if d[0] == instant}
    # The row holds who took the frame: a victim whose turn was still to
    # come did not; one already served did.
    assert took == {0, 1, 2, 3} - ({victim} if victim > crasher else set())
    # The dead node's deadlines died with it: it neither suspects anybody
    # nor announces itself again.
    assert net.node(victim).detector.monitored_nodes == []
    assert not [
        record
        for record in net.sim.trace.select(category="fd.detect", node=victim)
    ]
    assert not [
        time for time, _kind in els_transmissions(net.sim.trace, victim)
        if time > instant
    ]
    # The survivors notice Thb + Ttd after its last life-sign, and agree.
    last_heard = last_life_sign(net.sim.trace, victim, until=instant)
    detections = net.sim.trace.select(category="fd.detect")
    assert {record.data["failed"] for record in detections} == {victim}
    assert {record.time for record in detections} == {last_heard + REMOTE}
    assert sorted(net.agreed_view()) == sorted({0, 1, 2, 3} - {victim})
    # The per-receiver oracle (the broadcast reference) saw the very same
    # run, and so did the plan with spans on — whose ``can.rx`` of that
    # frame names who took it, like the row.
    with broadcast_delivery():
        oracle, _ = crash_mid_delivery(crasher, victim, on_els)
    observed, _ = crash_mid_delivery(crasher, victim, on_els, spans=True)
    for other in (oracle, observed):
        assert [record_to_dict(r) for r in net.sim.trace] == [
            record_to_dict(r) for r in other.sim.trace
        ]
        assert net.sim.events_processed == other.sim.events_processed
    (rx,) = [
        span
        for span in observed.sim.spans.select(name="can.rx")
        if span.start == instant
    ]
    assert set(rx.attrs["receivers"]) == took


# -- span tracing switched on and off mid-run -------------------------------------------


def run_with_span_flips(flips):
    net = CanelyNetwork(node_count=5, config=CONFIG)
    for at, enabled in flips:
        net.sim.schedule_at(
            at, lambda enabled=enabled: setattr(net.sim.spans, "enabled", enabled)
        )
    net.join_all()
    net.run_for(ms(400))
    net.sim.schedule_at(ms(455), net.node(2).crash)
    net.run_for(ms(200))
    return net


def test_span_flips_keep_every_watch_armed_exactly_once():
    plain = run_with_span_flips([])
    # Odd instants: a frame on the wire may start without a span and
    # complete with tracing on, or the other way round.
    flips = [(ms(410) + 7, True), (ms(433) + 7, False), (ms(450) + 7, True),
             (ms(471) + 7, False)]
    flipped = run_with_span_flips(flips)
    assert len(flipped.sim.spans) > 0
    for node_id in (0, 1, 3, 4):
        assert (
            flipped.node(node_id).detector.monitored_nodes
            == plain.node(node_id).detector.monitored_nodes
            == [0, 1, 3, 4]
        )
    assert [record_to_dict(r) for r in flipped.sim.trace] == [
        record_to_dict(r) for r in plain.sim.trace
    ]
    # Armed exactly once: the same kernel events fired (plus the flips
    # themselves) and are pending, and every surveillance span opened while
    # tracing was on has been closed (by a re-arm, a stop or its expiry) now
    # that it is off.
    assert flipped.sim.events_processed == plain.sim.events_processed + len(flips)
    assert flipped.sim.pending_events == plain.sim.pending_events
    surveillance = flipped.sim.spans.select(name="fd.surveillance")
    assert surveillance and all(span.end is not None for span in surveillance)
    assert {span.attrs["outcome"] for span in surveillance} == {"cancelled", "fired"}
