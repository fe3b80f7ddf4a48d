"""SWIM backend specifics: configuration and the suspicion sub-protocol.

The backend-neutral semantics (join/leave/detection/conformance) live in
``tests/test_membership_backend.py``; this module pins what is *SWIM*
about the rival stack — the :class:`~repro.swim.config.SwimConfig`
validation and CANELy mapping, the suspect/refute cycle that keeps a
slow-but-alive member in the view, the auto-rejoin flap after a false
confirmation, and the dead-incarnation gate that keeps stale traffic from
resurrecting a confirmed failure. The flap and gating tests are
white-box: they inject forged SWIM frames on the bus. A strict xfail pins a
known defect: SUSPECT and CONFIRM payloads raise the sender's incarnation.
"""

import pytest

from repro.can.controller import CanController
from repro.can.driver import CanStandardLayer
from repro.can.identifiers import MessageId, MessageType
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.errors import ConfigurationError
from repro.sim.clock import ms
from repro.swim import SwimConfig, SwimNode
from repro.swim import protocol as swim_protocol


# -- configuration -------------------------------------------------------------


def test_defaults_are_valid_and_wide():
    config = SwimConfig()
    assert config.capacity == 64
    SwimConfig(capacity=256)  # MID space, beyond CANELy's 64-node wire cap


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(capacity=0),
        dict(capacity=257),
        dict(probe_period=0),
        dict(fail_after=-1),
        dict(suspicion_timeout=0),
        dict(join_wait=0),
        # cross-field: every window must exceed the probe period
        dict(probe_period=ms(10), fail_after=ms(10)),
        dict(probe_period=ms(10), suspicion_timeout=ms(5)),
        dict(probe_period=ms(10), join_wait=ms(10)),
    ],
)
def test_invalid_configurations_are_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        SwimConfig(**kwargs)


def test_from_canely_maps_the_surveillance_bounds():
    canely = CanelyConfig(
        capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150)
    )
    config = SwimConfig.from_canely(canely)
    assert config.capacity == canely.capacity
    assert config.probe_period == canely.thb
    assert config.fail_after == canely.thb + canely.ttd
    assert config.suspicion_timeout == canely.thb + canely.ttd
    assert config.join_wait == canely.tjoin_wait
    override = SwimConfig.from_canely(canely, suspicion_timeout=ms(40))
    assert override.suspicion_timeout == ms(40)


def test_scenario_compatibility_properties():
    config = SwimConfig()
    assert config.tm == config.probe_period
    assert config.tjoin_wait == config.join_wait
    assert config.detection_latency_bound == (
        config.fail_after + config.suspicion_timeout + config.probe_period
    )


def test_coerce_config_accepts_none_native_and_canely():
    assert SwimNode.coerce_config(None) == SwimConfig()
    native = SwimConfig(capacity=8)
    assert SwimNode.coerce_config(native) is native
    canely = CanelyConfig(capacity=8, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))
    derived = SwimNode.coerce_config(canely)
    assert derived.capacity == 8
    assert derived.probe_period == canely.thb
    with pytest.raises(ConfigurationError):
        SwimNode.coerce_config(object())


# -- suspicion sub-protocol ----------------------------------------------------


def _swim_net(nodes=4):
    """A converged SWIM population on one bus."""
    net = CanelyNetwork(node_count=nodes, backend="swim")
    net.join_all()
    net.run_for(net.config.tjoin_wait + round(6 * net.config.tm))
    return net


def test_mute_but_listening_member_refutes_and_stays_in_the_view():
    net = _swim_net()
    mute = net.node(3)
    # Stop the heartbeat/probe timers without crashing the controller:
    # the node falls silent but still hears (and refutes) suspicions.
    mute.halt()
    net.run_for(ms(300))
    assert net.views_agree()
    assert sorted(net.agreed_view()) == [0, 1, 2, 3]
    assert net.node(0).protocol.suspicions > 0
    assert mute.protocol.refutes > 0
    assert net.sim.trace.select(category="swim.suspect")
    assert net.sim.trace.select(category="swim.refute")


def test_application_traffic_is_not_evidence_of_life():
    # The designed contrast with CANELy: there, application frames are
    # implicit life-signs; in SWIM only protocol messages count, so a
    # member that chats but never heartbeats is suspected regardless.
    net = _swim_net()
    chatty = net.node(2)
    chatty.halt()
    for _ in range(30):
        chatty.send(b"alive")
        net.run_for(ms(10))
    assert net.node(0).protocol.suspicions > 0
    assert chatty.protocol.refutes > 0
    assert 2 in net.node(0).view().members  # survived via refutes alone


def test_false_confirmation_causes_the_documented_auto_rejoin_flap():
    net = _swim_net()
    victim = net.node(1)
    changes = []
    victim.on_membership_change(changes.append)
    # Forge a CONFIRM naming a perfectly healthy member at its current
    # incarnation — the classic SWIM false positive.
    accuser = net.node(0)
    accuser.protocol._broadcast(
        swim_protocol.CONFIRM, 1, victim.protocol._incarnation
    )
    net.run_for(ms(100))
    # The victim heard itself confirmed failed, bumped its incarnation
    # and rejoined; everyone readmits it — the view flaps but recovers.
    assert sorted(net.agreed_view()) == [0, 1, 2, 3]
    assert any(1 in change.failed for change in changes)
    assert any(
        1 in change.active and not change.failed for change in changes
    )
    observer_changes = [
        record
        for record in net.sim.trace.select(category="msh.change")
        if record.node == 2
    ]
    assert any(1 in record.data["failed"] for record in observer_changes)
    assert any(1 in record.data["active"] for record in observer_changes[-1:])


def test_dead_incarnation_cannot_resurrect_a_confirmed_failure():
    net = _swim_net()
    victim = net.node(3)
    stale_inc = victim.protocol._incarnation
    victim.crash()
    net.run_for(ms(400))
    assert sorted(net.agreed_view()) == [0, 1, 2]
    forger = CanStandardLayer(CanController(7))
    net.bus.attach(forger.controller)
    join_mid = MessageId(
        MessageType.SWIM, node=3, ref=(swim_protocol.JOIN << 8) | 3
    )
    # Stale traffic from the incarnation that was confirmed dead: gated.
    forger.data_req(join_mid, (stale_inc & 0xFFFF).to_bytes(2, "little"))
    net.run_for(ms(20))
    assert sorted(net.agreed_view()) == [0, 1, 2]
    # A strictly higher incarnation outranks the death record.
    forger.data_req(
        join_mid, ((stale_inc + 1) & 0xFFFF).to_bytes(2, "little")
    )
    net.run_for(ms(20))
    assert 3 in net.node(0).view().members


def test_protocol_metrics_flow_into_the_shared_registry():
    net = _swim_net()
    net.node(1).crash()
    net.run_for(ms(400))
    assert net.sim.metrics.counter("swim.heartbeats").value > 0
    assert net.sim.metrics.counter("swim.suspects").value > 0
    assert net.sim.metrics.counter("swim.removals").value > 0
    metrics = net.node(0).metrics()
    assert metrics["removals"] >= 1
    assert metrics["heartbeats_sent"] > 0


@pytest.mark.xfail(
    strict=True,
    reason="_on_swim raises the sender's recorded incarnation to a SUSPECT or "
    "CONFIRM payload, which is the subject's incarnation",
)
def test_a_rejoined_suspect_does_not_raise_its_accusers_incarnations():
    """Node 2 rejoins at incarnation 2 and crashes again; its peers' SUSPECT
    and CONFIRM frames about it carry 2, and every receiver records the
    *senders* at 2 although they never left incarnation 1. Node 4 crashes,
    is confirmed dead at that recorded 2, and rejoins at its own 2: its JOIN
    is stale for good, and the survivors never readmit it."""
    config = SwimConfig(
        capacity=16, probe_period=ms(10), fail_after=ms(30),
        suspicion_timeout=ms(20), join_wait=ms(150),
    )
    net = CanelyNetwork(6, config=config, backend="swim")
    scenario = net.scenario().bootstrap()

    def rejoin(node_id):
        net.node(node_id).recover()
        net.node(node_id).join()

    scenario.crash(2, at=ms(100))
    scenario.at(ms(200), lambda: rejoin(2))
    scenario.crash(2, at=ms(300))
    scenario.crash(4, at=ms(400))
    scenario.at(ms(500), lambda: rejoin(4))
    scenario.run_for(ms(800))
    views = {node.node_id: sorted(node.view().members) for node in net.correct_nodes()}
    assert views == {node_id: [0, 1, 3, 4, 5] for node_id in (0, 1, 3, 4, 5)}
