"""TXT-6.6 — the related-work comparison of Section 6.6.

CAL/CANopen node guarding (centralized master-slave) and OSEK NM (logical
ring) against CANELy's failure detection, on identical 8-node networks:

* detection latency — the paper quotes ~1 s for OSEK at TTyp = 100 ms,
  versus CANELy's tens of ms;
* steady-state bandwidth — OSEK's ring messages run continuously; CAL
  polls forever; CANELy's quiescent cost is b explicit life-signs per
  heartbeat period;
* the centralized single point of failure — CAL detects nothing once the
  master is gone.
"""

from conftest import emit

from repro.can.bus import CanBus
from repro.can.controller import CanController
from repro.can.driver import CanStandardLayer
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.services.cal_nm import CalNodeGuarding
from repro.services.osek_nm import OsekNetworkManagement
from repro.sim.clock import ms, sec
from repro.sim.kernel import Simulator
from repro.sim.timers import TimerService
from repro.util.tables import render_table
from repro.analysis.latency import measured_detection_latencies

NODES = 8
VICTIM = 5


def run_canely():
    config = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))
    net = CanelyNetwork(node_count=NODES, config=config)
    net.scenario().bootstrap()
    start_bits = net.bus.stats.busy_bits
    start_time = net.sim.now
    net.run_for(sec(2))
    steady_bits_per_s = (net.bus.stats.busy_bits - start_bits) / 2
    crash_time = net.sim.now
    net.node(VICTIM).crash()
    net.run_for(sec(2))
    latency = measured_detection_latencies(net.sim.trace, {VICTIM: crash_time})[VICTIM]
    return latency, steady_bits_per_s


def _raw_network():
    sim = Simulator()
    bus = CanBus(sim)
    controllers, layers, timers = {}, {}, {}
    for node_id in range(NODES):
        controller = CanController(node_id)
        bus.attach(controller)
        controllers[node_id] = controller
        layers[node_id] = CanStandardLayer(controller)
        timers[node_id] = TimerService(sim)
    return sim, bus, controllers, layers, timers


def run_osek(t_typ=ms(100)):
    sim, bus, controllers, layers, timers = _raw_network()
    services = {
        node_id: OsekNetworkManagement(
            layers[node_id],
            timers[node_id],
            sim,
            ring_nodes=list(range(NODES)),
            t_typ=t_typ,
        )
        for node_id in range(NODES)
    }
    for service in services.values():
        service.start()
    sim.run_until(sec(2))
    start_bits = bus.stats.busy_bits
    start_time = sim.now
    sim.run_until(sim.now + sec(2))
    steady_bits_per_s = (bus.stats.busy_bits - start_bits) / 2
    # Worst case: the victim dies right after its own ring transmission.
    sends_before = services[VICTIM].ring_messages_sent
    while services[VICTIM].ring_messages_sent == sends_before:
        sim.run_until(sim.now + ms(10))
    controllers[VICTIM].crash()
    crash_time = sim.now
    sim.run_until(crash_time + sec(10))
    detected = services[0].detected.get(VICTIM)
    latency = None if detected is None else detected - crash_time
    return latency, steady_bits_per_s


def run_cal(guard_time=ms(50)):
    sim, bus, controllers, layers, timers = _raw_network()
    services = {
        node_id: CalNodeGuarding(
            layers[node_id],
            timers[node_id],
            sim,
            master_id=0,
            slave_ids=list(range(1, NODES)),
            guard_time=guard_time,
        )
        for node_id in range(NODES)
    }
    for service in services.values():
        service.start()
    sim.run_until(sec(2))
    start_bits = bus.stats.busy_bits
    sim.run_until(sim.now + sec(2))
    steady_bits_per_s = (bus.stats.busy_bits - start_bits) / 2
    controllers[VICTIM].crash()
    crash_time = sim.now
    sim.run_until(crash_time + sec(10))
    detected = services[0].detected.get(VICTIM)
    latency = None if detected is None else detected - crash_time
    return latency, steady_bits_per_s


def run_ttp(slot_time=ms(1)):
    """The TTP reference point: membership latency is one TDMA round."""
    from repro.services.ttp import TtpNetwork

    sim = Simulator()
    ttp = TtpNetwork(sim, NODES, slot_time)
    ttp.start()
    sim.run_until(sec(1))
    # Worst case: the victim dies right after its own slot.
    while (sim.now // slot_time) % NODES != (VICTIM + 1) % NODES:
        sim.run_until(sim.now + slot_time // 4)
    ttp.nodes[VICTIM].crash()
    crash_time = sim.now
    removals = []
    ttp.nodes[0].on_membership_change(
        lambda removed, view: removals.append((sim.now, removed))
    )
    sim.run_until(crash_time + sec(1))
    detected = next(at for at, removed in removals if removed == VICTIM)
    bits_per_s = ttp.bandwidth_frames_per_second() * 100  # ~100-bit frames
    return detected - crash_time, bits_per_s


def run_cal_master_dead():
    sim, bus, controllers, layers, timers = _raw_network()
    services = {
        node_id: CalNodeGuarding(
            layers[node_id],
            timers[node_id],
            sim,
            master_id=0,
            slave_ids=list(range(1, NODES)),
            guard_time=ms(50),
        )
        for node_id in range(NODES)
    }
    for service in services.values():
        service.start()
    sim.run_until(sec(2))
    controllers[0].crash()  # the master
    controllers[VICTIM].crash()
    sim.run_until(sim.now + sec(10))
    return all(VICTIM not in services[n].detected for n in range(1, NODES))


def bench_related_work_comparison(benchmark):
    def run_all():
        return {
            "canely": run_canely(),
            "osek": run_osek(),
            "cal": run_cal(),
            "ttp": run_ttp(),
            "cal_blind_after_master_crash": run_cal_master_dead(),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    canely_latency, canely_bits = results["canely"]
    osek_latency, osek_bits = results["osek"]
    cal_latency, cal_bits = results["cal"]
    ttp_latency, ttp_bits = results["ttp"]

    table = render_table(
        ["service", "detection latency", "steady traffic (bits/s)", "notes"],
        [
            [
                "TTP (1ms slots)",
                f"{ttp_latency / ms(1):.1f} ms",
                f"{ttp_bits:.0f}",
                "TDMA: constant traffic, slot-bound detection",
            ],
            [
                "CANELy (Thb=10ms)",
                f"{canely_latency / ms(1):.1f} ms",
                f"{canely_bits:.0f}",
                "distributed, consistent notification",
            ],
            [
                "OSEK NM (TTyp=100ms)",
                f"{osek_latency / ms(1):.1f} ms",
                f"{osek_bits:.0f}",
                "paper: 'order of one second'",
            ],
            [
                "CAL guarding (50ms slots)",
                f"{cal_latency / ms(1):.1f} ms",
                f"{cal_bits:.0f}",
                "master-only knowledge",
            ],
            [
                "CAL with crashed master",
                "never detects",
                "-",
                f"verified: {results['cal_blind_after_master_crash']}",
            ],
        ],
        title="Section 6.6 — related work comparison (8 nodes, 1 Mbps)",
    )
    emit("related_work", table)

    assert canely_latency is not None and canely_latency < ms(50)
    # TTP detection is bounded by one TDMA round (+1 slot) — both TTP and
    # CANELy land in the "tens of ms" class, as Fig. 11 reports.
    assert ttp_latency <= (NODES + 1) * ms(1)
    assert osek_latency is not None and ms(500) <= osek_latency <= sec(2)
    assert cal_latency is not None and cal_latency > canely_latency
    assert results["cal_blind_after_master_crash"]
    # The headline: an order of magnitude between CANELy and OSEK.
    assert osek_latency >= 10 * canely_latency
