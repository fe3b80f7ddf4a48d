"""Integration: the babbling idiot — the limitation Fig. 11 admits.

CANELy provides no babbling-idiot avoidance (no bus guardian). These tests
*reproduce the limitation*: a node babbling at top priority starves the
life-sign traffic and collapses the membership service — while the
agreement machinery itself keeps every surviving view consistent. Stopping
the babbler (what a bus guardian would do) lets the system recover through
rejoins.
"""

from repro.can.frame import CanFrame
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.sim.clock import ms
from repro.workloads import adversary
from repro.workloads.adversary import BabblingIdiot

CONFIG = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


def test_babbler_starves_lifesigns_and_collapses_membership():
    net = CanelyNetwork(node_count=5, config=CONFIG)
    net.scenario().bootstrap()
    babbler = BabblingIdiot(net.sim, net.bus, node_id=15)
    babbler.start()
    net.run_for(ms(300))
    # The service collapsed: members were expelled for missing heartbeats.
    views = net.member_views()
    collapsed = not views or all(len(view) < 5 for view in views.values())
    assert collapsed
    # ...but whatever views remain are still mutually consistent.
    assert net.views_agree()


def test_babbler_consumes_most_of_the_bus():
    net = CanelyNetwork(node_count=5, config=CONFIG)
    net.scenario().bootstrap()
    start_fda_bits = net.bus.stats.bits_by_type.get("FDA", 0)
    start_time = net.sim.now
    babbler = BabblingIdiot(net.sim, net.bus, node_id=15)
    babbler.start()
    net.run_for(ms(200))
    fda_bits = net.bus.stats.bits_by_type.get("FDA", 0) - start_fda_bits
    window_bits = (net.sim.now - start_time) // 1000  # ticks -> bit-times
    assert fda_bits / window_bits > 0.8  # the babbler owns the bus


def test_a_poll_rebuilds_nothing(monkeypatch):
    """The babbled frame and the poll period are built once: a poll neither
    constructs the frame nor encodes it."""
    net = CanelyNetwork(node_count=4, config=CONFIG)
    net.scenario().bootstrap()
    babbler = BabblingIdiot(net.sim, net.bus, node_id=15)
    polling = []
    seen = []
    remote_frame = adversary.remote_frame
    wire_bits = CanFrame.wire_bits

    def build(mid):
        seen.extend(("remote_frame",) * len(polling))
        return remote_frame(mid)

    def encode(frame, *args, **kwargs):
        seen.extend(("wire_bits",) * len(polling))
        return wire_bits(frame, *args, **kwargs)

    submit = babbler._submit

    def poll():
        polling.append(1)
        try:
            submit()
        finally:
            polling.pop()

    monkeypatch.setattr(adversary, "remote_frame", build)
    monkeypatch.setattr(CanFrame, "wire_bits", encode)
    monkeypatch.setattr(babbler, "_submit", poll)
    babbler.start()
    net.run_for(ms(20))
    assert babbler.frames_submitted > 10
    assert seen == []


def test_guardian_intervention_allows_recovery():
    """What a bus guardian buys: silence the babbler, the system heals."""
    net = CanelyNetwork(node_count=4, config=CONFIG)
    net.scenario().bootstrap()
    babbler = BabblingIdiot(net.sim, net.bus, node_id=15)
    babbler.start()
    net.run_for(ms(300))
    babbler.stop()
    net.run_for(ms(100))
    # Expelled-but-alive nodes rejoin.
    for node in net.nodes.values():
        if not node.is_member:
            node.join()
    net.run_for(ms(500))
    assert net.views_agree()
    assert sorted(net.agreed_view()) == [0, 1, 2, 3]


def test_throttled_babbler_is_survivable():
    """A low-rate 'babbler' (gap >> frame time) is just load: no collapse."""
    net = CanelyNetwork(node_count=4, config=CONFIG)
    net.scenario().bootstrap()
    babbler = BabblingIdiot(net.sim, net.bus, node_id=15, gap=ms(5))
    babbler.start()
    net.run_for(ms(300))
    assert net.views_agree()
    assert sorted(net.agreed_view()) == [0, 1, 2, 3]
