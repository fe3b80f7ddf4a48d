"""SWIM backend specifics: configuration and the suspicion sub-protocol.

The backend-neutral semantics (join/leave/detection/conformance) live in
``tests/test_membership_backend.py``; this module pins what is *SWIM*
about the rival stack — the :class:`~repro.swim.config.SwimConfig`
validation and CANELy mapping, the suspect/refute cycle that keeps a
slow-but-alive member in the view, the auto-rejoin flap after a false
confirmation, and the dead-incarnation gate that keeps stale traffic from
resurrecting a confirmed failure. The flap and gating tests are
white-box: they inject forged SWIM frames on the bus.
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
