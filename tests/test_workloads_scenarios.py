"""Unit tests for the trace latency queries of :mod:`repro.analysis.latency`
on builder-driven networks, and the typed bootstrap failure.
"""

import pytest

from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.errors import ReproError, ScenarioError
from repro.sim.clock import ms
from repro.analysis.latency import (
    crash_notification_times,
    measured_detection_latencies,
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


# -- trace latency queries --------------------------------------------------------


def test_first_change_with_failed():
    net = CanelyNetwork(node_count=3, config=CONFIG)
    net.scenario().bootstrap()
    crash_at = net.sim.now
    net.node(1).crash()
    net.run_for(ms(200))
    notified = crash_notification_times(net.sim.trace, {1: crash_at})[1]
    assert set(notified) == {0, 2}
    assert min(notified.values()) >= crash_at


def test_first_change_with_failed_none_when_absent():
    net = CanelyNetwork(node_count=3, config=CONFIG)
    net.scenario().bootstrap()
    assert crash_notification_times(net.sim.trace, {2: 0}) == {2: {}}


def test_detection_latencies():
    net = CanelyNetwork(node_count=4, config=CONFIG)
    net.scenario().bootstrap()
    crash_time = net.sim.now
    net.node(3).crash()
    net.run_for(ms(200))
    latencies = measured_detection_latencies(net.sim.trace, {3: crash_time})
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
    latencies = measured_detection_latencies(net.sim.trace, crash_times)
    # The one-pass computation must agree with a per-node trace scan.
    for victim, crashed_at in crash_times.items():
        notified_at = next(
            record.time
            for record in net.sim.trace.select(category="msh.change")
            if record.time >= crashed_at and victim in record.data["failed"]
        )
        assert latencies[victim] == notified_at - crashed_at


def test_detection_latencies_ignores_changes_before_crash():
    net = CanelyNetwork(node_count=4, config=CONFIG)
    net.scenario().bootstrap()
    crash_time = net.sim.now
    net.node(2).crash()
    net.run_for(ms(200))
    # A claimed crash far in the future has no matching change record.
    latencies = measured_detection_latencies(
        net.sim.trace, {2: crash_time, 3: net.sim.now + ms(500)}
    )
    assert latencies[2] is not None
    assert latencies[3] is None
