"""A frame costs O(1) bookkeeping, not O(n) — gated without a wall clock.

One life-sign-dominated CANELy run (bootstrap, two talkers, 300 simulated
ms) at 8 and at 32 nodes. What the simulator does *per physical frame* must
not grow with the population: trace rows (one ``bus.deliver`` row per
frame, not per receiver), kernel events (one surveillance deadline per
group of observers, not per observer) and failure-detector calls (the bus
tells the shared surveillance table once per frame, not every detector).
Counts are exact and host-independent, which no timing can be.
"""

import inspect

import pytest

from repro.core.config import CanelyConfig
from repro.core.failure_detector import FailureDetector
from repro.core.stack import CanelyNetwork
from repro.sim.clock import ms
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


def per_frame_costs(node_count, detector_calls):
    net = CanelyNetwork(node_count, config=CONFIG)
    scenario = net.scenario().bootstrap()
    frames = net.bus.stats.physical_frames
    events = net.sim.events_processed
    calls = detector_calls[0]
    for node_id in range(2):
        PeriodicSource(
            net.sim, net.node(node_id), period=ms(10), offset=node_id * ms(1)
        )
    scenario.run_for(ms(300))
    assert net.views_agree() and len(net.agreed_view()) == node_count
    steady = net.bus.stats.physical_frames - frames
    assert steady > 20 * node_count  # life-signs dominate: ~30 per node
    return {
        "rows": len(net.sim.trace) / net.bus.stats.physical_frames,
        "events": (net.sim.events_processed - events) / steady,
        "detector_calls": (detector_calls[0] - calls) / steady,
    }


def test_per_frame_bookkeeping_does_not_grow_with_the_population(detector_calls):
    small = per_frame_costs(8, detector_calls)
    large = per_frame_costs(32, detector_calls)
    assert small["rows"] <= 4 and large["rows"] <= 4, (small, large)
    assert large["events"] <= 1.25 * small["events"], (small, large)
    assert large["detector_calls"] <= 2 * small["detector_calls"], (small, large)
