"""Online invariant monitors: unit tests plus end-to-end integration.

The integration tests run a real CANELy network with the standard monitor
set attached as live trace sinks, then inject violations and check the
monitors catch them *with* the offending trace slice attached.
"""

import pytest

from repro.analysis.latency import latency_bounds
from repro.core.stack import CanelyNetwork
from repro.obs.monitors import (
    DetectionLatencyMonitor,
    DuplicateFailureSignMonitor,
    InvariantViolation,
    ViewAgreementMonitor,
    standard_monitors,
)
from repro.sim.clock import ms
from repro.sim.trace import TraceRecorder


# -- unit: duplicate failure-sign --------------------------------------------------


def test_single_delivery_passes():
    trace = TraceRecorder()
    DuplicateFailureSignMonitor().attach(trace)
    trace.record(10, "fda.nty", node=1, failed=5)
    trace.record(20, "fda.nty", node=2, failed=5)  # other receiver: fine


def test_duplicate_delivery_fails_with_slice():
    trace = TraceRecorder()
    DuplicateFailureSignMonitor().attach(trace)
    trace.record(10, "fda.nty", node=1, failed=5)
    with pytest.raises(InvariantViolation) as excinfo:
        trace.record(20, "fda.nty", node=1, failed=5)
    violation = excinfo.value
    assert violation.monitor == "no-duplicate-failure-sign"
    assert [r.time for r in violation.records] == [10, 20]
    assert "offending trace slice" in str(violation)


def test_reset_allows_redelivery():
    trace = TraceRecorder()
    DuplicateFailureSignMonitor().attach(trace)
    trace.record(10, "fda.nty", node=1, failed=5)
    trace.record(15, "fda.reset", node=1, failed=5)
    trace.record(20, "fda.nty", node=1, failed=5)  # fresh counters: fine


def test_eviction_allows_redelivery():
    trace = TraceRecorder()
    DuplicateFailureSignMonitor().attach(trace)
    trace.record(10, "fda.nty", node=1, failed=5)
    trace.record(15, "fda.evict", node=1, failed=5)
    trace.record(20, "fda.nty", node=1, failed=5)


def test_receiver_reboot_clears_state():
    trace = TraceRecorder()
    DuplicateFailureSignMonitor().attach(trace)
    trace.record(10, "fda.nty", node=1, failed=5)
    trace.record(15, "node.recover", node=1)
    trace.record(20, "fda.nty", node=1, failed=5)


def test_detach_stops_checking():
    trace = TraceRecorder()
    monitor = DuplicateFailureSignMonitor().attach(trace)
    trace.record(10, "fda.nty", node=1, failed=5)
    monitor.detach()
    trace.record(20, "fda.nty", node=1, failed=5)  # no longer watched


# -- unit: view agreement ----------------------------------------------------------


def test_agreeing_views_pass():
    trace = TraceRecorder()
    ViewAgreementMonitor().attach(trace)
    trace.record(10, "msh.view", node=0, members={0, 1}, round_index=3)
    trace.record(11, "msh.view", node=1, members={0, 1}, round_index=3)


def test_divergent_views_fail():
    trace = TraceRecorder()
    ViewAgreementMonitor().attach(trace)
    trace.record(10, "msh.view", node=0, members={0, 1, 2}, round_index=3)
    with pytest.raises(InvariantViolation) as excinfo:
        trace.record(11, "msh.view", node=1, members={0, 1}, round_index=3)
    assert excinfo.value.monitor == "view-agreement"


def test_late_joiner_not_compared():
    """A node absent from the peer's view (not yet a full member) may hold
    a different view without violating agreement."""
    trace = TraceRecorder()
    ViewAgreementMonitor().attach(trace)
    trace.record(10, "msh.view", node=0, members={0, 1}, round_index=3)
    trace.record(11, "msh.view", node=2, members={0, 1, 2}, round_index=3)


def test_rounds_are_independent():
    trace = TraceRecorder()
    ViewAgreementMonitor().attach(trace)
    trace.record(10, "msh.view", node=0, members={0, 1}, round_index=3)
    trace.record(11, "msh.view", node=1, members={0, 1}, round_index=4)


# -- unit: detection latency -------------------------------------------------------


def _member_view(trace, time, members):
    for node in members:
        trace.record(time, "msh.view", node=node, members=set(members),
                     round_index=1)


def test_latency_within_bound_passes_and_feeds_histogram():
    from repro.obs.metrics import MetricsRegistry

    trace = TraceRecorder()
    registry = MetricsRegistry()
    DetectionLatencyMonitor(bound=100, metrics=registry).attach(trace)
    _member_view(trace, 0, [0, 1])
    trace.record(50, "node.crash", node=1)
    trace.record(120, "fda.nty", node=0, failed=1)
    hist = registry.histogram("fd.detection_latency_ticks", node=1)
    assert hist.count == 1 and hist.maximum == 70


def test_latency_beyond_bound_fails():
    trace = TraceRecorder()
    DetectionLatencyMonitor(bound=100).attach(trace)
    _member_view(trace, 0, [0, 1])
    trace.record(50, "node.crash", node=1)
    with pytest.raises(InvariantViolation) as excinfo:
        trace.record(500, "fda.nty", node=0, failed=1)
    assert excinfo.value.monitor == "detection-latency"


def test_latency_reads_only_its_detection_row():
    trace = TraceRecorder()
    DetectionLatencyMonitor(bound=100, row="swim.confirm").attach(trace)
    _member_view(trace, 0, [0, 1])
    trace.record(50, "node.crash", node=1)
    trace.record(500, "fda.nty", node=0, failed=1)  # not this backend's row
    with pytest.raises(InvariantViolation):
        trace.record(500, "swim.confirm", node=0, failed=1)


def test_non_member_failure_sign_ignored():
    trace = TraceRecorder()
    DetectionLatencyMonitor(bound=100).attach(trace)
    trace.record(50, "node.crash", node=9)  # never in any view
    trace.record(500, "fda.nty", node=0, failed=9)


def test_recovered_node_not_timed():
    trace = TraceRecorder()
    DetectionLatencyMonitor(bound=100).attach(trace)
    _member_view(trace, 0, [0, 1])
    trace.record(50, "node.crash", node=1)
    trace.record(60, "node.recover", node=1)
    trace.record(500, "fda.nty", node=0, failed=1)


# -- integration: monitors over a real network run ---------------------------------


def _observed_net():
    net = CanelyNetwork(node_count=5)
    monitors = standard_monitors(
        net.sim.trace,
        detection_bound=latency_bounds(net.config).notification,
        metrics=net.sim.metrics,
    )
    return net, monitors


def test_clean_crash_run_satisfies_all_monitors():
    net, monitors = _observed_net()
    net.join_all()
    net.run_for(ms(400))
    net.node(3).crash()
    net.run_for(ms(150))
    assert net.views_agree()
    assert all(monitor.records_seen > 0 for monitor in monitors)
    # The latency monitor actually timed the crash.
    hist = net.sim.metrics.histogram("fd.detection_latency_ticks", node=3)
    assert hist.count >= 1
    assert hist.maximum <= latency_bounds(net.config).notification


def test_monitors_see_only_the_rows_they_read():
    """Monitor observations per row, an exact simulator count: each monitor
    is handed the rows of its declared categories and nothing else, and the
    whole set costs at most 1.2 observations per recorded row (every
    monitor saw every row, 4 per row, before rows were routed)."""
    net, monitors = _observed_net()
    assert len(net.sim.trace) == 0
    net.join_all()
    net.run_for(ms(400))
    net.node(3).crash()
    net.run_for(ms(150))
    trace = net.sim.trace
    for monitor in monitors:
        assert monitor.records_seen == sum(map(trace.count, monitor.categories))
    observations = sum(monitor.records_seen for monitor in monitors)
    assert observations / len(trace) <= 1.2


def test_injected_duplicate_failure_sign_is_caught_with_slice():
    """Acceptance scenario: corrupt the FDA dedup state mid-run (modelled
    by replaying a failure-sign delivery record) and the monitor must stop
    the run, reporting the records around the violation."""
    net, _monitors = _observed_net()
    net.join_all()
    net.run_for(ms(400))
    net.node(3).crash()
    # Far enough for the failure-sign to arrive, short of the membership
    # cycle boundary that would legitimately retire the FDA counters.
    net.run_for(ms(15))
    first = net.sim.trace.select(category="fda.nty", node=0)[0]
    with pytest.raises(InvariantViolation) as excinfo:
        # Replay the delivery: a second fda.nty for the same (receiver,
        # failed) pair without an intervening reset/evict/reboot.
        net.sim.trace.record(
            net.sim.now, "fda.nty", node=0, failed=first.data["failed"]
        )
    violation = excinfo.value
    assert violation.monitor == "no-duplicate-failure-sign"
    assert violation.records, "violation must carry the offending slice"
    assert violation.records[-1].category == "fda.nty"
    assert f"node {first.data['failed']}" in str(violation)


def test_scenario_runner_attaches_monitors():
    from repro.workloads.scenario import load_script, run

    scenario = load_script(
        {
            "nodes": 4,
            "events": [{"at_ms": 100, "action": "crash", "node": 2}],
            "duration_ms": 400,
        }
    )
    result = run(scenario)
    assert result.ok
    # The detection-latency monitor observed the crash.
    assert "fd.detection_latency_ticks{node=2}" in result.network.sim.metrics.snapshot()
    assert result.report()["views_agree"]


def test_detach_takes_the_monitors_own_ledger_along():
    """A phantom-removal monitor attaches its own crash ledger and detaches
    it with itself: afterwards a crash row changes nothing."""
    from repro.obs.monitors import PhantomRemovalMonitor

    trace = TraceRecorder()
    monitor = PhantomRemovalMonitor().attach(trace)
    trace.record(10, "node.crash", node=1)
    assert monitor.episodes.down == {1: 10}
    monitor.detach()
    trace.record(20, "node.crash", node=2)
    assert monitor.episodes.down == {1: 10}
