"""Unit tests for TOTCAN (totally ordered atomic broadcast)."""

from repro.can.errormodel import FaultInjector, FaultKind
from repro.can.identifiers import MessageType
from repro.llc.totcan import Totcan
from repro.sim.clock import ms


def wire(net, stability=ms(2), discard=ms(10)):
    protocols = {}
    delivered = {}
    for node_id, layer in net.layers.items():
        protocol = Totcan(
            layer,
            net.timers[node_id],
            net.sim,
            stability_delay=stability,
            discard_timeout=discard,
        )
        log = []
        protocol.on_deliver(lambda s, r, d, log=log: log.append((s, r)))
        protocols[node_id] = protocol
        delivered[node_id] = log
    return protocols, delivered


def test_single_broadcast_delivered_everywhere(raw_bus):
    net = raw_bus(4)
    protocols, delivered = wire(net)
    ref = protocols[0].broadcast(b"m")
    net.sim.run_until(ms(30))
    for log in delivered.values():
        assert log == [(0, ref)]


def test_total_order_across_concurrent_senders(raw_bus):
    net = raw_bus(5)
    protocols, delivered = wire(net)
    for sender in (0, 1, 2, 3):
        protocols[sender].broadcast(bytes([sender]))
    net.sim.run_until(ms(50))
    orders = list(delivered.values())
    assert len(orders[0]) == 4
    for order in orders[1:]:
        assert order == orders[0]  # identical delivery order everywhere


def test_atomicity_sender_crash_before_accept(raw_bus):
    """A message whose ACCEPT never appears is delivered by nobody."""
    injector = FaultInjector()
    # Destroy the data frame consistently and kill the sender: the accept
    # is never issued (the sender's cnf never happens).
    injector.fault_on_frame(
        lambda f: f.mid.mtype is MessageType.DATA and not f.remote,
        FaultKind.CONSISTENT_OMISSION,
        crash_sender=True,
    )
    net = raw_bus(4, injector=injector)
    protocols, delivered = wire(net)
    protocols[0].broadcast(b"never")
    net.sim.run_until(ms(50))
    for log in delivered.values():
        assert log == []


def test_atomicity_buffered_copies_are_discarded_when_no_accept_follows(raw_bus):
    """Receivers that buffered a message whose sender died before the
    accept drop it at the discard timeout, and deliver nothing."""
    injector = FaultInjector()
    # Only nodes 1 and 2 take the data frame; the sender then crashes, so
    # no accept is ever issued for their buffered copies.
    injector.fault_on_frame(
        lambda f: f.mid.mtype is MessageType.DATA and not f.remote,
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[1, 2],
        crash_sender=True,
    )
    net = raw_bus(4, injector=injector)
    protocols, delivered = wire(net, stability=ms(2), discard=ms(10))

    def buffered():
        return {
            node_id: len(protocol._buffered)
            for node_id, protocol in protocols.items()
            if protocol._buffered
        }

    protocols[0].broadcast(b"orphan")
    net.sim.run_until(ms(5))
    assert buffered() == {1: 1, 2: 1}
    net.sim.run_until(ms(50))
    assert buffered() == {}
    for log in delivered.values():
        assert log == []


def test_order_preserved_under_inconsistent_accept(raw_bus):
    injector = FaultInjector()
    # The first BCTRL (accept) transmission suffers an inconsistent omission.
    injector.fault_on_frame(
        lambda f: f.mid.mtype is MessageType.BCTRL,
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[3],
    )
    net = raw_bus(5, injector=injector)
    protocols, delivered = wire(net, stability=ms(3))
    protocols[0].broadcast(b"a")
    protocols[1].broadcast(b"b")
    net.sim.run_until(ms(60))
    orders = list(delivered.values())
    assert len(orders[0]) == 2
    for order in orders[1:]:
        assert order == orders[0]


def test_delivered_count(raw_bus):
    net = raw_bus(3)
    protocols, _ = wire(net)
    protocols[0].broadcast(b"x")
    protocols[1].broadcast(b"y")
    net.sim.run_until(ms(30))
    assert protocols[2].delivered_count == 2
