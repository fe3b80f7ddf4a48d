"""Integration: node crash detection and consistent view updates."""

from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.sim.clock import ms
from repro.analysis.latency import measured_detection_latencies
from repro.workloads.traffic import PeriodicSource

CONFIG = CanelyConfig(capacity=64, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


def test_detection_latency_is_tens_of_ms():
    """Fig. 11's membership row: CANELy latency in the tens of ms."""
    net = CanelyNetwork(node_count=8, config=CONFIG)
    net.scenario().bootstrap()
    crash_time = net.sim.now
    net.node(5).crash()
    net.run_for(ms(200))
    latency = measured_detection_latencies(net.sim.trace, {5: crash_time})[5]
    assert latency is not None
    assert latency <= CONFIG.thb + CONFIG.ttd + ms(5)


def test_f_crashes_in_one_cycle():
    """The paper's harsh scenario: f = 4 nodes fail within one cycle."""
    net = CanelyNetwork(node_count=12, config=CONFIG)
    net.scenario().bootstrap()
    crash_time = net.sim.now
    for node_id in (2, 5, 7, 11):
        net.node(node_id).crash()
    net.run_for(ms(250))
    assert net.views_agree()
    assert sorted(net.agreed_view()) == [0, 1, 3, 4, 6, 8, 9, 10]
    latencies = measured_detection_latencies(
        net.sim.trace, {n: crash_time for n in (2, 5, 7, 11)}
    )
    assert all(latency is not None for latency in latencies.values())


def test_cascading_crashes_across_cycles():
    net = CanelyNetwork(node_count=8, config=CONFIG)
    net.scenario().bootstrap()
    expected = set(range(8))
    for node_id in (1, 3, 6):
        net.node(node_id).crash()
        expected.discard(node_id)
        net.run_for(ms(120))
        assert net.views_agree()
        assert set(net.agreed_view()) == expected


def test_detector_of_detector_crashing():
    """The first detector crashes right after requesting FDA — the sign
    still reaches everyone (FDA's whole purpose)."""
    net = CanelyNetwork(node_count=6, config=CONFIG)
    net.scenario().bootstrap()
    net.node(5).crash()
    # Crash node 0 the instant the first FDA frame appears on the bus.
    fda_seen = []

    def watch():
        frames = [
            r
            for r in net.sim.trace.select(category="bus.tx")
            if r.data["mid"].mtype.name == "FDA"
        ]
        if frames and not fda_seen:
            fda_seen.append(frames[0].time)
            net.node(0).crash()
        if not fda_seen:
            net.sim.schedule(ms(1), watch)

    net.sim.schedule(ms(1), watch)
    net.run_for(ms(300))
    assert net.views_agree()
    assert set(net.agreed_view()) <= {1, 2, 3, 4}


def test_implicit_lifesigns_carry_detection():
    """With fast periodic traffic no ELS is ever sent, yet crashes are
    detected just as quickly."""
    net = CanelyNetwork(node_count=5, config=CONFIG)
    net.scenario().bootstrap()
    sources = [
        PeriodicSource(net.sim, net.node(n), period=ms(5)) for n in range(5)
    ]
    net.run_for(ms(100))
    els_before = sum(node.detector.els_sent for node in net.nodes.values())
    crash_time = net.sim.now
    net.node(4).crash()
    net.run_for(ms(100))
    latency = measured_detection_latencies(net.sim.trace, {4: crash_time})[4]
    assert latency is not None and latency <= ms(20)
    els_after = sum(node.detector.els_sent for node in net.nodes.values())
    assert els_after == els_before  # implicit life-signs did all the work


def test_majority_crash():
    net = CanelyNetwork(node_count=6, config=CONFIG)
    net.scenario().bootstrap()
    for node_id in (0, 1, 2, 3):
        net.node(node_id).crash()
    net.run_for(ms(300))
    assert net.views_agree()
    assert sorted(net.agreed_view()) == [4, 5]
