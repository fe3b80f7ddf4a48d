"""Unit tests for the analytical latency bounds."""

from repro.analysis.latency import fda_dissemination_bound, latency_bounds
from repro.core.config import CanelyConfig
from repro.sim.clock import ms


def test_silence_bound_is_thb_plus_ttd():
    config = CanelyConfig(thb=ms(10), ttd=ms(6))
    bounds = latency_bounds(config)
    assert bounds.silence == ms(16)


def test_notification_bound_composition():
    config = CanelyConfig()
    bounds = latency_bounds(config)
    assert bounds.notification == bounds.silence + bounds.dissemination


def test_view_update_adds_one_cycle():
    config = CanelyConfig()
    bounds = latency_bounds(config)
    assert bounds.view_update == bounds.notification + config.tm


def test_dissemination_grows_with_j():
    low = CanelyConfig(inconsistent_degree=1)
    high = CanelyConfig(inconsistent_degree=4)
    assert fda_dissemination_bound(high) > fda_dissemination_bound(low)


def test_dissemination_scales_with_bit_rate():
    config = CanelyConfig()
    fast = fda_dissemination_bound(config, bit_rate=1_000_000)
    slow = fda_dissemination_bound(config, bit_rate=125_000)
    assert slow == 8 * fast


def test_dissemination_is_sub_millisecond_at_1mbps():
    """The FDA term is negligible next to the silence bound — the reason
    detection latency is governed by Thb."""
    config = CanelyConfig()
    assert fda_dissemination_bound(config) < ms(1)


def test_bounds_cover_measured_latency():
    """The bound must actually bound the simulator's measurement."""
    from repro.core.stack import CanelyNetwork
    from repro.analysis.latency import measured_detection_latencies

    config = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))
    bounds = latency_bounds(config)
    net = CanelyNetwork(node_count=8, config=config)
    net.scenario().bootstrap()
    crash_time = net.sim.now
    net.node(5).crash()
    net.run_for(ms(200))
    measured = measured_detection_latencies(net.sim.trace, {5: crash_time})[5]
    assert measured is not None
    assert measured <= bounds.notification


def test_crash_notification_times_one_change_feeds_every_victim():
    """Two crashes folded into one membership cycle: the single
    ``msh.change`` naming both must be attributed to each of them, per
    observer, and notifications predating a crash must be ignored."""
    from repro.analysis.latency import (
        crash_notification_times,
        measured_detection_latencies,
    )
    from repro.sim.trace import TraceRecorder

    trace = TraceRecorder()
    # A stale change naming node 1 before it actually crashed.
    trace.record(
        50, "msh.change", node=0,
        active=frozenset({0, 3}), failed=frozenset({1}),
    )
    # One cycle removes both victims, seen by two observers.
    trace.record(
        140, "msh.change", node=0,
        active=frozenset({0, 3}), failed=frozenset({1, 2}),
    )
    trace.record(
        160, "msh.change", node=3,
        active=frozenset({0, 3}), failed=frozenset({1, 2}),
    )
    notifications = crash_notification_times(trace, {1: 100, 2: 120})
    assert notifications == {
        1: {0: 140, 3: 160},
        2: {0: 140, 3: 160},
    }
    latencies = measured_detection_latencies(trace, {1: 100, 2: 120})
    assert latencies == {1: 40, 2: 20}


def test_measured_detection_latencies_none_when_never_notified():
    from repro.analysis.latency import measured_detection_latencies
    from repro.sim.trace import TraceRecorder

    trace = TraceRecorder()
    assert measured_detection_latencies(trace, {4: 100}) == {4: None}
