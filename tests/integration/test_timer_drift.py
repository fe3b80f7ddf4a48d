"""Integration: the protocol suite on drifting oscillators.

Real nodes run their protocol timers on imperfect clocks. Crystal-grade
drift (±100 ppm) must be invisible; grossly detuned timers (a node whose
heartbeat period runs 40% long) are a *fault* the failure detector
correctly converts into an expulsion.
"""

import random

from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.sim.clock import ms
from repro.analysis.latency import measured_detection_latencies

CONFIG = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


def drifted_network(node_count=6, ppm=100, seed=3):
    rng = random.Random(seed)
    drifts = {
        node_id: rng.uniform(-ppm * 1e-6, ppm * 1e-6)
        for node_id in range(node_count)
    }
    return CanelyNetwork(node_count=node_count, config=CONFIG, timer_drifts=drifts)


def test_crystal_drift_is_invisible():
    net = drifted_network(ppm=100)
    net.scenario().bootstrap()
    net.run_for(ms(1000))
    assert net.views_agree()
    assert sorted(net.agreed_view()) == list(range(6))


def test_detection_still_within_bound_under_drift():
    net = drifted_network(ppm=200)
    net.scenario().bootstrap()
    crash_time = net.sim.now
    net.node(4).crash()
    net.run_for(ms(200))
    latency = measured_detection_latencies(net.sim.trace, {4: crash_time})[4]
    assert latency is not None
    # The bound gains at most the drift fraction.
    assert latency <= (CONFIG.thb + CONFIG.ttd) * 1.01 + ms(2)


def test_grossly_detuned_heartbeat_is_expelled():
    """A node whose timers run 40% slow misses its heartbeat deadlines:
    the surveillance margin (Ttd) cannot absorb it, and the failure
    detector treats it as what it is — a timing-failed node."""
    drifts = {5: 0.40}
    net = CanelyNetwork(node_count=6, config=CONFIG, timer_drifts=drifts)
    net.join_all()
    net.run_for(CONFIG.tjoin_wait + 4 * CONFIG.tm)
    net.run_for(ms(500))
    assert net.views_agree()
    view = set(net.agreed_view())
    assert 5 not in view
    assert view == {0, 1, 2, 3, 4}


def test_mild_detuning_absorbed_by_ttd_margin():
    """A 20% slow heartbeat still lands inside Thb + Ttd: tolerated."""
    drifts = {5: 0.20}
    net = CanelyNetwork(node_count=6, config=CONFIG, timer_drifts=drifts)
    net.scenario().bootstrap()
    net.run_for(ms(500))
    assert sorted(net.agreed_view()) == list(range(6))
