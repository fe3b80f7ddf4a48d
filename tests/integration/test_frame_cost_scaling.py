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
"""

import inspect

import pytest

from repro.core.config import CanelyConfig
from repro.core.failure_detector import FailureDetector
from repro.core.stack import CanelyNetwork
from repro.sim.clock import ms
from repro.sim.trace import record_to_dict
from repro.workloads.traffic import PeriodicSource

CONFIG = CanelyConfig(capacity=64, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


@pytest.fixture
def detector_calls(monkeypatch):
    """Counts every call of a method ``FailureDetector`` defines."""
    calls = [0]

    def counted(function):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return function(*args, **kwargs)

        return wrapper

    for name, member in list(vars(FailureDetector).items()):
        if inspect.isfunction(member):
            monkeypatch.setattr(FailureDetector, name, counted(member))
    return calls


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
