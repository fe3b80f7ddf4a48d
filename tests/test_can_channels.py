"""Unit tests for the optional channel redundancy layer."""

import pytest

from repro.can.bus import CanBus
from repro.can.channels import DualChannelLayer
from repro.can.controller import CanController
from repro.can.driver import CanStandardLayer
from repro.can.identifiers import MessageId, MessageType
from repro.core.config import CanelyConfig
from repro.core.stack import DualChannelNetwork
from repro.errors import ConfigurationError
from repro.sim.clock import ms, us
from repro.sim.kernel import Simulator

CONFIG = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


def make_dual(node_count=3, window=us(500)):
    sim = Simulator()
    buses = (CanBus(sim), CanBus(sim))
    layers = {}
    for node_id in range(node_count):
        per_channel = []
        for bus in buses:
            controller = CanController(node_id)
            bus.attach(controller)
            per_channel.append(CanStandardLayer(controller))
        layers[node_id] = DualChannelLayer(sim, per_channel[0], per_channel[1], window)
    return sim, buses, layers


def test_single_delivery_despite_two_channels():
    sim, buses, layers = make_dual()
    received = []
    layers[1].add_data_ind(lambda mid, data: received.append((mid.ref, data)))
    layers[0].data_req(MessageId(MessageType.DATA, node=0, ref=3), b"x")
    sim.run()
    assert received == [(3, b"x")]  # the twin copy was suppressed
    assert buses[0].stats.physical_frames == 1
    assert buses[1].stats.physical_frames == 1


def test_single_confirmation():
    sim, buses, layers = make_dual()
    confirmed = []
    layers[0].add_data_cnf(lambda mid: confirmed.append(mid.ref))
    layers[0].data_req(MessageId(MessageType.DATA, node=0, ref=1), b"")
    sim.run()
    assert confirmed == [1]


def test_nty_fires_once():
    sim, buses, layers = make_dual()
    notified = []
    layers[2].add_data_nty(lambda mid: notified.append(mid.node))
    layers[0].data_req(MessageId(MessageType.DATA, node=0), b"z")
    sim.run()
    assert notified == [0]


def test_rtr_single_delivery():
    sim, buses, layers = make_dual()
    received = []
    layers[1].add_rtr_ind(lambda mid: received.append(mid.node), mtype=MessageType.ELS)
    layers[0].rtr_req(MessageId(MessageType.ELS, node=0))
    sim.run()
    assert received == [0]


def test_channel_failure_is_masked():
    sim, buses, layers = make_dual()
    received = []
    layers[1].add_data_ind(lambda mid, data: received.append(mid.ref))
    buses[0].inject_inaccessibility(2**40)  # channel 0 gone
    layers[0].data_req(MessageId(MessageType.DATA, node=0, ref=9), b"")
    sim.run_until(ms(5))
    assert received == [9]


def test_repeated_identifier_outside_window_delivers_again():
    sim, buses, layers = make_dual(window=us(500))
    received = []
    layers[1].add_rtr_ind(lambda mid: received.append(sim.now))
    layers[0].rtr_req(MessageId(MessageType.ELS, node=0))
    sim.run()
    sim.run_until(sim.now + ms(5))
    layers[0].rtr_req(MessageId(MessageType.ELS, node=0))
    sim.run()
    assert len(received) == 2  # legitimate repetition, not a twin


def test_abort_applies_to_both_channels():
    sim, buses, layers = make_dual()
    blocker = MessageId(MessageType.DATA, node=0, ref=0)
    target = MessageId(MessageType.DATA, node=0, ref=1)
    layers[0].data_req(blocker, b"")
    layers[0].data_req(target, b"")
    assert layers[0].has_pending(target)
    assert layers[0].abort_req(target)
    assert not layers[0].has_pending(target)


def test_facade_crash_silences_both_channels():
    sim, buses, layers = make_dual()
    received = []
    layers[1].add_data_ind(lambda mid, data: received.append(1))
    layers[0].controller.crash()
    assert layers[0].controller.crashed
    layers[0].data_req(MessageId(MessageType.DATA, node=0), b"")
    sim.run()
    assert received == []


def test_mismatched_node_ids_rejected():
    sim = Simulator()
    buses = (CanBus(sim), CanBus(sim))
    a = CanController(0)
    b = CanController(1)
    buses[0].attach(a)
    buses[1].attach(b)
    with pytest.raises(ConfigurationError):
        DualChannelLayer(sim, CanStandardLayer(a), CanStandardLayer(b), us(500))


def test_invalid_window_rejected():
    sim, buses, layers = make_dual()
    a = CanController(9)
    b = CanController(9)
    buses[0].attach(a)
    buses[1].attach(b)
    with pytest.raises(ConfigurationError):
        DualChannelLayer(sim, CanStandardLayer(a), CanStandardLayer(b), 0)


# -- full stack over dual channels ------------------------------------------------


def test_stack_bootstraps_over_dual_channels():
    net = DualChannelNetwork(node_count=5, config=CONFIG)
    net.join_all()
    net.run_for(ms(400))
    assert net.views_agree()
    assert sorted(net.agreed_view()) == [0, 1, 2, 3, 4]


def test_stack_survives_total_channel_loss():
    """Fig. 11: channel redundancy — a whole channel dies, nobody notices."""
    net = DualChannelNetwork(node_count=5, config=CONFIG)
    net.join_all()
    net.run_for(ms(400))
    net.fail_channel(0)
    net.run_for(ms(300))
    assert net.views_agree()
    assert sorted(net.agreed_view()) == [0, 1, 2, 3, 4]


def test_detection_still_works_on_surviving_channel():
    net = DualChannelNetwork(node_count=5, config=CONFIG)
    net.join_all()
    net.run_for(ms(400))
    net.fail_channel(1)
    net.run_for(ms(100))
    net.node(3).crash()
    net.run_for(ms(150))
    assert net.views_agree()
    assert sorted(net.agreed_view()) == [0, 1, 2, 4]


def test_crashed_node_recovers_and_rejoins_over_dual_channels():
    """``recover()`` writes through the dual-controller facade: both
    controllers come back up with cleared error counters."""
    net = DualChannelNetwork(node_count=4, config=CONFIG)
    net.join_all()
    net.run_for(ms(400))
    node = net.node(2)
    node.controller.tec = 100
    node.controller.rec = 50
    assert (node.controller.tec, node.controller.rec) == (100, 50)
    node.crash()
    net.run_for(ms(200))
    assert sorted(net.agreed_view()) == [0, 1, 3]
    node.recover()
    assert not node.crashed
    assert (node.controller.tec, node.controller.rec) == (0, 0)
    node.join()
    net.run_for(ms(600))
    assert net.views_agree()
    assert sorted(net.agreed_view()) == [0, 1, 2, 3]


def test_asymmetric_channel_fault_still_single_delivery():
    """An inconsistent omission on channel A only: channel B's copy covers
    it, and twin suppression still yields exactly one delivery."""
    from repro.can.errormodel import FaultInjector, FaultKind

    sim = Simulator()
    injector_a = FaultInjector()
    injector_a.fault_on_transmission(
        0, FaultKind.INCONSISTENT_OMISSION, accepting=[]
    )
    buses = (CanBus(sim, injector=injector_a), CanBus(sim))
    layers = {}
    for node_id in range(3):
        per_channel = []
        for bus in buses:
            controller = CanController(node_id)
            bus.attach(controller)
            per_channel.append(CanStandardLayer(controller))
        layers[node_id] = DualChannelLayer(
            sim, per_channel[0], per_channel[1], us(500)
        )
    received = []
    layers[1].add_data_ind(lambda mid, data: received.append(sim.now))
    layers[0].data_req(MessageId(MessageType.DATA, node=0, ref=1), b"x")
    sim.run_until(ms(5))
    # Channel A needed a retransmission; channel B delivered promptly; the
    # late A copy was suppressed as a twin (or fell outside the window and
    # would be a legitimate repeat — with a 500 µs window it is suppressed).
    assert len(received) in (1, 2)
    assert received[0] < us(400)


def test_consistent_error_on_one_channel_masked_by_other():
    from repro.can.errormodel import FaultInjector, FaultKind

    sim = Simulator()
    injector_a = FaultInjector()
    injector_a.fault_on_frame(
        lambda f: True, FaultKind.CONSISTENT_OMISSION, count=3
    )
    buses = (CanBus(sim, injector=injector_a), CanBus(sim))
    layers = {}
    for node_id in range(2):
        per_channel = []
        for bus in buses:
            controller = CanController(node_id)
            bus.attach(controller)
            per_channel.append(CanStandardLayer(controller))
        layers[node_id] = DualChannelLayer(
            sim, per_channel[0], per_channel[1], us(500)
        )
    received = []
    layers[1].add_data_ind(lambda mid, data: received.append(sim.now))
    layers[0].data_req(MessageId(MessageType.DATA, node=0, ref=2), b"y")
    sim.run_until(ms(5))
    assert received  # channel B delivered despite channel A's error burst
    assert received[0] < us(300)
