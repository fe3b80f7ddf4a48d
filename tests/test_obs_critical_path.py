"""Critical-path latency attribution: segments must sum *exactly*.

The acceptance property of the span subsystem: for a seeded crash
scenario, the named critical-path segments are contiguous and their
integer-tick durations sum exactly to the latency the flat trace
measures — no rounding, no unattributed gap.
"""

import pytest

from repro.core.stack import CanelyNetwork
from repro.obs.critical_path import (
    CriticalPath,
    CriticalPathError,
    Segment,
    detection_path,
    notification_path,
    view_update_path,
)
from repro.sim.clock import ms
from repro.analysis.latency import measured_detection_latencies


@pytest.fixture(scope="module")
def crashed():
    """(network, crashed node, crash time) for a seeded crash scenario."""
    net = CanelyNetwork(node_count=5, spans=True)
    scenario = net.scenario(seed=0).bootstrap()
    crash_time = net.sim.now + ms(2)
    scenario.crash(2, at=ms(2)).run_until_settled()
    return net, 2, crash_time


# -- exact-sum acceptance -------------------------------------------------------------


def test_detection_segments_sum_exactly_to_detection_latency(crashed):
    net, failed, crash_time = crashed
    path = detection_path(net.sim.spans, failed)
    # Measured from the flat trace, independently of the span tree.
    crash = net.sim.trace.select(category="node.crash", node=failed)[0]
    first_nty = min(
        record.time
        for record in net.sim.trace.select(category="fda.nty")
        if record.data["failed"] == failed
    )
    assert path.start == crash.time == crash_time
    assert path.end == first_nty
    assert sum(seg.duration for seg in path.segments) == path.total
    assert path.total == first_nty - crash.time


def test_notification_segments_sum_exactly_to_notification_latency(crashed):
    net, failed, crash_time = crashed
    path = notification_path(net.sim.spans, failed)
    measured = measured_detection_latencies(net.sim.trace, {failed: crash_time})[failed]
    assert measured is not None
    assert sum(seg.duration for seg in path.segments) == path.total == measured


def test_view_update_segments_sum_exactly(crashed):
    net, failed, _crash_time = crashed
    path = view_update_path(net.sim.spans, failed)
    crash = net.sim.trace.select(category="node.crash", node=failed)[0]
    first_view = min(
        record.time
        for record in net.sim.trace.select(
            category="msh.view", start=crash.time
        )
        if failed not in record.data["members"]
    )
    assert path.end == first_view
    assert sum(seg.duration for seg in path.segments) == path.total
    # The view lands strictly after the immediate notification.
    assert path.total > notification_path(net.sim.spans, failed).total
    assert any(seg.name == "cycle-wait" for seg in path.segments)


def test_segments_are_contiguous_and_named(crashed):
    net, failed, _ = crashed
    for builder in (detection_path, notification_path, view_update_path):
        path = builder(net.sim.spans, failed)
        at = path.start
        for segment in path.segments:
            assert segment.start == at
            assert segment.duration > 0  # zero-length phases are dropped
            at = segment.end
        assert at == path.end
    detection = detection_path(net.sim.spans, failed)
    assert [seg.name for seg in detection.segments][0] == "surveillance-wait"


def test_paths_are_deterministic_across_same_seed_runs(crashed):
    net, failed, _ = crashed

    def rerun():
        other = CanelyNetwork(node_count=5, spans=True)
        other.scenario(seed=0).bootstrap().crash(2, at=ms(2)).run_until_settled()
        return detection_path(other.sim.spans, failed)

    first = detection_path(net.sim.spans, failed)
    second = rerun()
    assert first.segments == second.segments
    assert first.total == second.total


def test_observer_argument_selects_the_node(crashed):
    net, failed, _ = crashed
    path = notification_path(net.sim.spans, failed, observer=3)
    assert path.observer == 3
    assert sum(seg.duration for seg in path.segments) == path.total


def test_every_survivor_keeps_its_whole_causal_chain(crashed):
    """One ``can.rx`` per frame and one ``fd.surveillance`` per group still
    give every observer its own complete tree, back to the delivery of the
    crashed node's last life-sign."""
    net, failed, _ = crashed
    spans = net.sim.spans
    survivors = [n for n in range(5) if n != failed]
    for observer in survivors:
        for builder in (detection_path, notification_path, view_update_path):
            path = builder(spans, failed, observer=observer)
            assert path.observer == observer
            assert sum(seg.duration for seg in path.segments) == path.total
        (nty,) = [
            span
            for span in spans.select(name="fda.nty", node=observer)
            if span.attrs.get("failed") == failed
        ]
        chain = spans.ancestors(nty.span_id)
        assert [span.name for span in chain[:6]] == [
            "can.rx", "can.tx", "can.frame", "fd.detect", "fd.surveillance", "can.rx",
        ]
        assert observer in chain[0].attrs["receivers"]
        surveillance, life_sign = chain[4], chain[5]
        assert surveillance.attrs["tag"] == failed
        assert surveillance.attrs["outcome"] == "fired"
        assert sorted(surveillance.attrs["watchers"]) == survivors
        assert spans.get(life_sign.parent).node == failed  # its ``can.tx``


def test_render_reports_total_and_percentages(crashed):
    net, failed, _ = crashed
    lines = detection_path(net.sim.spans, failed).render()
    assert f"detection of node {failed}" in lines[0]
    assert any("surveillance-wait" in line and "%" in line for line in lines[1:])


# -- construction invariants ----------------------------------------------------------


def test_gap_in_segments_is_rejected():
    with pytest.raises(CriticalPathError, match="gap"):
        CriticalPath(
            kind="detection",
            failed=1,
            observer=0,
            start=0,
            end=10,
            segments=(Segment("a", 0, 4), Segment("b", 6, 10)),
        )


def test_short_segments_are_rejected():
    with pytest.raises(CriticalPathError, match="ends at"):
        CriticalPath(
            kind="detection",
            failed=1,
            observer=0,
            start=0,
            end=10,
            segments=(Segment("a", 0, 4),),
        )


def test_missing_chain_raises_not_guesses():
    from repro.obs.spans import SpanTracer

    with pytest.raises(CriticalPathError, match="no 'fda.nty' span"):
        detection_path(SpanTracer(clock=lambda: 0), failed=1)
