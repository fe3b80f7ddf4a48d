"""Integration: CANELy against the Section 6.6 baselines, head to head."""

from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.services.cal_nm import CalNodeGuarding
from repro.services.osek_nm import OsekNetworkManagement
from repro.sim.clock import ms, sec
from repro.sim.kernel import Simulator
from repro.sim.timers import TimerService
from repro.can.bus import CanBus
from repro.can.controller import CanController
from repro.can.driver import CanStandardLayer
from repro.analysis.latency import measured_detection_latencies

NODES = 8


def canely_latency():
    config = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))
    net = CanelyNetwork(node_count=NODES, config=config)
    net.scenario().bootstrap()
    crash_time = net.sim.now
    net.node(5).crash()
    net.run_for(sec(3))
    return measured_detection_latencies(net.sim.trace, {5: crash_time})[5]


def osek_latency(t_typ=ms(100)):
    sim = Simulator()
    bus = CanBus(sim)
    services = {}
    controllers = {}
    for node_id in range(NODES):
        controller = CanController(node_id)
        bus.attach(controller)
        controllers[node_id] = controller
        services[node_id] = OsekNetworkManagement(
            CanStandardLayer(controller),
            TimerService(sim),
            sim,
            ring_nodes=list(range(NODES)),
            t_typ=t_typ,
        )
        services[node_id].start()
    sim.run_until(sec(3))
    # Worst case: the node dies right after forwarding the token — its
    # silence only becomes observable when the token comes around again.
    sends_before = services[5].ring_messages_sent
    while services[5].ring_messages_sent == sends_before:
        sim.run_until(sim.now + ms(10))
    controllers[5].crash()
    crash_time = sim.now
    sim.run_until(crash_time + sec(8))
    detected = services[0].detected.get(5)
    return None if detected is None else detected - crash_time


def cal_latency(guard_time=ms(50)):
    sim = Simulator()
    bus = CanBus(sim)
    services = {}
    controllers = {}
    for node_id in range(NODES):
        controller = CanController(node_id)
        bus.attach(controller)
        controllers[node_id] = controller
        services[node_id] = CalNodeGuarding(
            CanStandardLayer(controller),
            TimerService(sim),
            sim,
            master_id=0,
            slave_ids=list(range(1, NODES)),
            guard_time=guard_time,
        )
        services[node_id].start()
    sim.run_until(sec(2))
    controllers[5].crash()
    crash_time = sim.now
    sim.run_until(sec(8))
    detected = services[0].detected.get(5)
    return None if detected is None else detected - crash_time


def test_canely_detects_in_tens_of_ms():
    latency = canely_latency()
    assert latency is not None
    assert latency < ms(50)


def test_osek_detects_in_order_of_a_second():
    """Section 6.6: OSEK's latency for TTyp=100ms is ~1 s."""
    latency = osek_latency()
    assert latency is not None
    assert ms(100) <= latency <= sec(2)


def test_cal_latency_scales_with_polling_round():
    latency = cal_latency()
    assert latency is not None
    # life time = guard * slaves * factor = 50ms * 7 * 2 = 700ms.
    assert ms(300) <= latency <= sec(1.5)


def test_canely_order_of_magnitude_faster_than_osek():
    """The paper's headline related-work comparison."""
    assert canely_latency() * 10 <= osek_latency()


def test_canely_faster_than_cal():
    assert canely_latency() * 5 <= cal_latency()
