"""A frame costs O(1) bookkeeping, not O(n) — gated without a wall clock.

One life-sign-dominated CANELy run (bootstrap, two talkers, 300 simulated
ms) at 8 and at 32 nodes. What the simulator does *per physical frame* must
not grow with the population: trace rows (one ``bus.deliver`` row per
frame, not per receiver), kernel events (one surveillance deadline per
group of observers, not per observer) and failure-detector calls (the bus
tells the shared surveillance table once per frame, not every detector).
Counts are exact and host-independent, which no timing can be. Nor may
watching change that: with span tracing on, the spans recorded per frame
stay a handful at either size (one ``can.rx`` per frame, one
``fd.surveillance`` per group of observers), and the run is the same run.

The SWIM twin: one heartbeat-dominated run at 16 and at 64 nodes. A heartbeat
from a member everybody holds alive is heard once (``SwimHearing``) and
restarts one silence clock per group of receivers, so SWIM calls, kernel
events and — with span tracing on — spans per frame must not grow with the
population either.

Arbitration under saturating load: every controller keeps frames queued, so
polling each queue per frame would cost n looks. Popping the ready heap
looks at the winner and the run of its identifier, whatever n is.

The bus cycle: a frame costs two kernel events, its arbitration and its
completion. Without errors every arbitration starts a frame; error frames,
inaccessibility windows and a crash add a handful of arbitrations that
find nothing to send.
"""

import collections
import heapq
import inspect
import itertools

import pytest

from repro.can import bus as bus_module
from repro.can.bus import CanBus
from repro.can.controller import CanController
from repro.can.errormodel import FaultInjector, FaultKind
from repro.can.frame import data_frame, remote_frame
from repro.can.identifiers import MessageId, MessageType
from repro.core.config import CanelyConfig
from repro.core.failure_detector import FailureDetector
from repro.core.stack import CanelyNetwork
from repro.sim.clock import ms
from repro.sim.kernel import Simulator
from repro.sim.trace import record_to_dict
from repro.swim import protocol as swim_protocol
from repro.swim.config import SwimConfig
from repro.workloads.traffic import PeriodicSource

CONFIG = CanelyConfig(capacity=64, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


SWIM_CONFIG = SwimConfig(
    capacity=64, probe_period=ms(20), fail_after=ms(60),
    suspicion_timeout=ms(40), join_wait=ms(300),
)


def _count_calls(monkeypatch, *owners):
    """Counts every call of a function the ``owners`` define."""
    calls = [0]

    def counted(function):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return function(*args, **kwargs)

        return wrapper

    for owner in owners:
        for name, member in list(vars(owner).items()):
            if inspect.isfunction(member):
                monkeypatch.setattr(owner, name, counted(member))
    return calls


@pytest.fixture
def detector_calls(monkeypatch):
    """Counts every call of a method ``FailureDetector`` defines."""
    return _count_calls(monkeypatch, FailureDetector)


@pytest.fixture
def swim_calls(monkeypatch):
    """Counts every call of a function ``SwimProtocol`` and the hearing
    object define."""
    return _count_calls(
        monkeypatch, swim_protocol.SwimProtocol, swim_protocol.SwimHearing
    )


def per_frame_costs(node_count, detector_calls, spans=False):
    net = CanelyNetwork(node_count, config=CONFIG, spans=spans)
    scenario = net.scenario().bootstrap()
    frames = net.bus.stats.physical_frames
    events = net.sim.events_processed
    calls = detector_calls[0]
    recorded = len(net.sim.spans)
    for node_id in range(2):
        PeriodicSource(
            net.sim, net.node(node_id), period=ms(10), offset=node_id * ms(1)
        )
    scenario.run_for(ms(300))
    assert net.views_agree() and len(net.agreed_view()) == node_count
    steady = net.bus.stats.physical_frames - frames
    assert steady > 20 * node_count  # life-signs dominate: ~30 per node
    costs = {
        "rows": len(net.sim.trace) / net.bus.stats.physical_frames,
        "events": (net.sim.events_processed - events) / steady,
        "detector_calls": (detector_calls[0] - calls) / steady,
        "spans": (len(net.sim.spans) - recorded) / steady,
    }
    run = (
        net.sim.events_processed,
        [record_to_dict(record) for record in net.sim.trace],
    )
    return costs, run


def test_per_frame_bookkeeping_does_not_grow_with_the_population(detector_calls):
    small, _ = per_frame_costs(8, detector_calls)
    large, _ = per_frame_costs(32, detector_calls)
    assert small["rows"] <= 4 and large["rows"] <= 4, (small, large)
    assert large["events"] <= 1.25 * small["events"], (small, large)
    assert large["detector_calls"] <= 2 * small["detector_calls"], (small, large)


def test_watching_a_frame_does_not_grow_with_the_population_either(detector_calls):
    small, small_run = per_frame_costs(8, detector_calls, spans=True)
    large, large_run = per_frame_costs(32, detector_calls, spans=True)
    assert 0 < small["spans"] <= 8 and large["spans"] <= 8, (small, large)
    assert large["spans"] <= 1.25 * small["spans"], (small, large)
    assert large["detector_calls"] <= 2 * small["detector_calls"], (small, large)
    # Same kernel events, same trace rows as with nobody watching.
    assert small_run == per_frame_costs(8, detector_calls)[1]
    assert large_run == per_frame_costs(32, detector_calls)[1]


# -- the SWIM twin -------------------------------------------------------------------


def swim_per_frame_costs(node_count, swim_calls, spans=False):
    net = CanelyNetwork(node_count, config=SWIM_CONFIG, backend="swim", spans=spans)
    scenario = net.scenario().bootstrap()
    frames = net.bus.stats.physical_frames
    events = net.sim.events_processed
    calls = swim_calls[0]
    recorded = len(net.sim.spans)
    scenario.run_for(ms(300))
    assert net.views_agree() and len(net.agreed_view()) == node_count
    steady = net.bus.stats.physical_frames - frames
    assert steady >= 14 * node_count  # nothing but heartbeats, 15 per node
    costs = {
        "events": (net.sim.events_processed - events) / steady,
        "swim_calls": (swim_calls[0] - calls) / steady,
        "spans": (len(net.sim.spans) - recorded) / steady,
    }
    run = (
        net.sim.events_processed,
        [record_to_dict(record) for record in net.sim.trace],
    )
    return costs, run


def test_a_swim_frame_does_not_cost_more_in_a_larger_population(swim_calls):
    small, _ = swim_per_frame_costs(16, swim_calls)
    large, _ = swim_per_frame_costs(64, swim_calls)
    assert large["swim_calls"] <= 2 * small["swim_calls"], (small, large)
    assert large["events"] <= 1.25 * small["events"], (small, large)


def test_watching_a_swim_frame_does_not_either(swim_calls):
    small, small_run = swim_per_frame_costs(16, swim_calls, spans=True)
    large, large_run = swim_per_frame_costs(64, swim_calls, spans=True)
    assert 0 < small["spans"] <= 8 and large["spans"] <= 8, (small, large)
    assert large["swim_calls"] <= 2 * small["swim_calls"], (small, large)
    # Same kernel events, same trace rows as with nobody watching.
    assert small_run == swim_per_frame_costs(16, swim_calls)[1]
    assert large_run == swim_per_frame_costs(64, swim_calls)[1]


# -- arbitration ---------------------------------------------------------------------


@pytest.fixture
def arbitration_rounds(monkeypatch):
    """``(looks, cluster size)`` per arbitration that starts a frame, where a
    look is a ``head_request`` call or a ready-heap pop."""
    looks = [0]
    rounds = []

    def counted(function):
        def wrapper(*args):
            looks[0] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(bus_module, "heappop", counted(heapq.heappop))
    monkeypatch.setattr(
        CanController, "head_request", counted(CanController.head_request)
    )
    contend = CanBus._contend

    def watched(bus):
        before = looks[0]
        taken = contend(bus)
        if taken:
            rounds.append((looks[0] - before, len(taken)))
        return taken

    monkeypatch.setattr(CanBus, "_contend", watched)
    return rounds


def saturate(node_count):
    """Every controller queues a shared beacon (one remote frame, so the
    first arbitration is an n-way cluster) and two data frames, then
    submits the next one on every confirmation until it has queued ten:
    each queue stays non-empty until it runs dry."""
    sim = Simulator()
    bus = CanBus(sim)
    beacon = remote_frame(MessageId(MessageType.ELS, node=0))
    for node_id in range(node_count):
        controller = CanController(node_id)
        bus.attach(controller)

        def refill(_frame, c=controller, refs=itertools.count(3)):
            ref = next(refs)
            if ref <= 10:
                c.submit(data_frame(MessageId(MessageType.DATA, node=c.node_id, ref=ref)))

        controller.on_tx_success = refill
        controller.submit(beacon)
        for ref in (1, 2):
            controller.submit(data_frame(MessageId(MessageType.DATA, node=node_id, ref=ref)))
    sim.run()
    return bus


@pytest.mark.parametrize("node_count", [16, 64])
def test_arbitration_looks_at_the_winner_not_at_every_queue(
    arbitration_rounds, node_count
):
    bus = saturate(node_count)
    assert bus.stats.physical_frames == 1 + 10 * node_count
    assert len(arbitration_rounds) == bus.stats.physical_frames
    assert arbitration_rounds[0][1] == node_count  # the beacon's cluster
    extra = max(looks - cluster for looks, cluster in arbitration_rounds)
    assert extra <= 2, arbitration_rounds


# -- the bus cycle -------------------------------------------------------------------


@pytest.fixture
def bus_events(monkeypatch):
    """Fired kernel events per bus action: ``_arbitrate`` and ``_complete``
    run only as kernel events."""
    fired = collections.Counter()
    for name in ("_arbitrate", "_complete"):

        def counted(bus, _action=getattr(CanBus, name), _name=name):
            fired[_name] += 1
            _action(bus)

        monkeypatch.setattr(CanBus, name, counted)
    return fired


def bus_cycle_run(injector=None, windows=0):
    """Eight nodes, two talkers, a crash, 300 ms; ``windows``
    inaccessibility windows of 150 bit-times on the way."""
    net = CanelyNetwork(8, config=CONFIG, injector=injector)
    scenario = net.scenario().bootstrap()
    for node_id in range(2):
        PeriodicSource(
            net.sim, net.node(node_id), period=ms(10), offset=node_id * ms(1)
        )
    start = net.sim.now
    net.sim.schedule_at(start + ms(100), net.node(5).crash)
    for index in range(windows):
        net.sim.schedule_at(
            start + ms(30) + index * ms(37),
            lambda: net.bus.inject_inaccessibility(150),
        )
    scenario.run_for(ms(300))
    assert net.views_agree()
    return net.bus


def test_a_frame_costs_two_bus_events(bus_events):
    bus = bus_cycle_run()
    assert bus.stats.error_frames == 0
    on_wire = bus._current is not None
    assert bus_events["_complete"] == bus.stats.physical_frames
    # One arbitration per frame: none finds an empty bus.
    assert bus_events["_arbitrate"] == bus.stats.physical_frames + on_wire
    bus_events.clear()
    injector = FaultInjector()
    injector.fault_on_frame(
        lambda frame: frame.mid.mtype is MessageType.FDA,
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[1],
    )
    injector.fault_on_frame(
        lambda frame: frame.mid.mtype is MessageType.ELS,
        FaultKind.CONSISTENT_OMISSION,
        count=5,
    )
    bus = bus_cycle_run(injector, windows=5)
    assert bus.stats.error_frames == 6
    assert bus.stats.inaccessibility_bits == 5 * 150
    events = bus_events["_arbitrate"] + bus_events["_complete"]
    assert events <= 2.1 * bus.stats.physical_frames, bus_events
