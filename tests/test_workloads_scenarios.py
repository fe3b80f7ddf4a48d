"""Unit tests for the trace-query helpers (``first_change_with_failed``,
``detection_latencies``) and the typed bootstrap failure, driven through
the builder API.
"""

import pytest

from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.errors import ReproError, ScenarioError
from repro.sim.clock import ms
from repro.workloads.scenarios import (
    detection_latencies,
    first_change_with_failed,
)

CONFIG = CanelyConfig(capacity=16, tm=ms(50), tjoin_wait=ms(150))


# -- bootstrap failure ---------------------------------------------------------


def test_bootstrap_failure_raises_typed_error():
    net = CanelyNetwork(node_count=3, config=CONFIG)
    net.node(0).crash()  # one node can never join
    with pytest.raises(ScenarioError) as excinfo:
        net.scenario().bootstrap()
    assert "did not converge" in str(excinfo.value)
    # Campaign workers classify on the type, so it must be a ReproError —
    # not a bare AssertionError matched by message.
    assert isinstance(excinfo.value, ReproError)


def test_bootstrap_failure_message_is_reproducible():
    """Non-convergence must name the settle-cycle count and the seed, so a
    campaign/check failure is reproducible from the message alone."""
    net = CanelyNetwork(node_count=3, config=CONFIG)
    net.node(1).crash()
    with pytest.raises(ScenarioError) as excinfo:
        net.scenario(seed=1234).bootstrap(settle_cycles=3)
    message = str(excinfo.value)
    assert "settle_cycles=3" in message
    assert "seed=1234" in message


# -- trace-query helpers ---------------------------------------------------------


def test_first_change_with_failed():
    net = CanelyNetwork(node_count=3, config=CONFIG)
    net.scenario().bootstrap()
    crash_at = net.sim.now
    net.node(1).crash()
    net.run_for(ms(200))
    notified = first_change_with_failed(net, 1, after=crash_at)
    assert notified is not None
    assert notified >= crash_at


def test_first_change_with_failed_none_when_absent():
    net = CanelyNetwork(node_count=3, config=CONFIG)
    net.scenario().bootstrap()
    assert first_change_with_failed(net, 2) is None


def test_detection_latencies():
    net = CanelyNetwork(node_count=4, config=CONFIG)
    net.scenario().bootstrap()
    crash_time = net.sim.now
    net.node(3).crash()
    net.run_for(ms(200))
    latencies = detection_latencies(net, {3: crash_time})
    assert latencies[3] is not None
    assert 0 < latencies[3] <= ms(30)


def test_detection_latencies_multiple_crashes_single_pass():
    net = CanelyNetwork(node_count=5, config=CONFIG)
    net.scenario().bootstrap()
    crash_times = {}
    for victim in (1, 4):
        crash_times[victim] = net.sim.now
        net.node(victim).crash()
        net.run_for(ms(60))
    net.run_for(ms(200))
    latencies = detection_latencies(net, crash_times)
    # The one-pass computation must agree with the per-node trace scans.
    for victim, crashed_at in crash_times.items():
        notified_at = first_change_with_failed(net, victim, after=crashed_at)
        assert latencies[victim] == notified_at - crashed_at


def test_detection_latencies_ignores_changes_before_crash():
    net = CanelyNetwork(node_count=4, config=CONFIG)
    net.scenario().bootstrap()
    crash_time = net.sim.now
    net.node(2).crash()
    net.run_for(ms(200))
    # A claimed crash far in the future has no matching change record.
    latencies = detection_latencies(net, {2: crash_time, 3: net.sim.now + ms(500)})
    assert latencies[2] is not None
    assert latencies[3] is None
