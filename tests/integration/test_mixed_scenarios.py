"""Integration: everything at once — traffic, churn, crashes, clock sync."""

import random

from repro.can.errormodel import FaultInjector
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.llc.properties import check_all_properties
from repro.services.clocksync import ClockSyncService, VirtualClock, precision
from repro.sim.clock import ms, us
from repro.analysis.latency import measured_detection_latencies
from repro.workloads.traffic import PeriodicSource, SporadicSource, TrafficSet

CONFIG = CanelyConfig(capacity=32, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


def test_full_system_day_in_the_life():
    """Traffic + crash + rejoin + leave + clock sync, with stochastic
    faults within the model's degree bounds — views must agree throughout
    and the substrate properties must hold at the end."""
    rng = random.Random(99)
    injector = FaultInjector(
        rng=rng, consistent_probability=0.01, inconsistent_probability=0.003
    )
    net = CanelyNetwork(node_count=10, config=CONFIG, injector=injector)
    net.scenario().bootstrap()

    # Application traffic: half the nodes chatty, half sporadic.
    traffic = TrafficSet()
    for node_id in range(5):
        traffic.add(PeriodicSource(net.sim, net.node(node_id), period=ms(8)))
    for node_id in range(5, 10):
        traffic.add(
            SporadicSource(
                net.sim,
                net.node(node_id),
                mean_interarrival=ms(40),
                rng=random.Random(node_id),
            )
        )

    # Clock synchronization running alongside.
    clocks = {}
    for node_id, node in net.nodes.items():
        clock = VirtualClock(drift=random.Random(1000 + node_id).uniform(-1e-4, 1e-4))
        clocks[node_id] = clock
        ClockSyncService(
            node.layer,
            node.timers,
            net.sim,
            clock,
            resync_period=ms(100),
            reception_jitter_rng=random.Random(2000 + node_id),
        ).start()

    net.run_for(ms(300))
    assert net.views_agree()

    # A crash mid-operation.
    crash_time = net.sim.now
    net.node(7).crash()
    net.run_for(ms(300))
    assert net.views_agree()
    assert 7 not in net.agreed_view()
    latency = measured_detection_latencies(net.sim.trace, {7: crash_time})[7]
    assert latency is not None and latency <= ms(50)

    # A leave and a rejoin.
    net.node(2).leave()
    net.run_for(ms(300))
    net.node(7).recover()
    net.node(7).join()
    net.run_for(ms(400))
    assert net.views_agree()
    view = set(net.agreed_view())
    assert 2 not in view and 7 in view

    # Clocks stayed synchronized through all of it.
    live_clocks = {
        node_id: clock
        for node_id, clock in clocks.items()
        if not net.node(node_id).crashed and net.node(node_id).is_member
    }
    assert precision(live_clocks, net.sim.now) < us(80)

    # The substrate honoured the system model the whole time. Stochastic
    # inconsistencies happened (rng-dependent), but within generous bounds.
    report = check_all_properties(
        net.sim.trace,
        correct_nodes=[n for n in range(10) if n != 2 and not net.node(n).crashed],
        omission_degree=10_000,
        inconsistent_degree=10_000,
        window=CONFIG.reference_window,
    )
    mcan_lcan_structural = [
        violation
        for violation in report.violations
        if violation.startswith(("MCAN1", "MCAN2", "LCAN3"))
    ]
    assert not mcan_lcan_structural, mcan_lcan_structural


def test_bus_utilization_stays_sane_under_load():
    net = CanelyNetwork(node_count=8, config=CONFIG)
    net.scenario().bootstrap()
    for node_id in net.nodes:
        PeriodicSource(net.sim, net.node(node_id), period=ms(5))
    start_bits = net.bus.stats.busy_bits
    start_time = net.sim.now
    net.run_for(ms(500))
    window_bits = net.bus.stats.busy_bits - start_bits
    window_ticks = net.sim.now - start_time
    utilization = net.bus.timing.bits_to_ticks(window_bits) / window_ticks
    # 8 nodes * (one ~130-bit frame / 5 ms) ~ 21% + protocol overhead.
    assert 0.1 < utilization < 0.5


def test_deterministic_replay_with_faults():
    def run():
        injector = FaultInjector(
            rng=random.Random(5),
            consistent_probability=0.02,
            inconsistent_probability=0.005,
        )
        net = CanelyNetwork(node_count=6, config=CONFIG, injector=injector)
        net.join_all()
        net.run_for(ms(600))
        return [
            (r.time, r.node, r.category)
            for r in net.sim.trace.select(category="msh.")
        ]

    assert run() == run()
