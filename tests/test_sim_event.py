"""Unit tests for the event queue, drained by the kernel's one drain loop."""

from repro.sim.kernel import Simulator


def fire_all(sim):
    """Step ``sim`` until its queue is empty; returns the firing times."""
    times = []
    while sim.step():
        times.append(sim.now)
    return times


def test_push_pop_single():
    sim = Simulator()
    fired = []
    event = sim.schedule_at(10, lambda: fired.append(1))
    assert sim.step()
    assert sim.now == 10
    assert fired == [1]
    assert event._queue is None


def test_pop_empty_returns_none():
    assert Simulator().step() is False


def test_time_ordering():
    sim = Simulator()
    for time in (30, 10, 20):
        sim.schedule_at(time, lambda: None)
    assert fire_all(sim) == [10, 20, 30]


def test_fifo_tie_break_at_same_time():
    sim = Simulator()
    order = []
    sim.schedule_at(5, lambda: order.append("first"))
    sim.schedule_at(5, lambda: order.append("second"))
    sim.schedule_at(5, lambda: order.append("third"))
    sim.run()
    assert order == ["first", "second", "third"]


def test_priority_beats_insertion_order():
    sim = Simulator()
    order = []
    sim.schedule_at(5, lambda: order.append("low"), priority=1)
    sim.schedule_at(5, lambda: order.append("high"), priority=0)
    sim.run()
    assert order == ["high", "low"]


def test_cancelled_event_is_skipped():
    sim = Simulator()
    event = sim.schedule_at(1, lambda: None)
    sim.schedule_at(2, lambda: None)
    event.cancel()
    assert sim.step()
    assert sim.now == 2


def test_bounded_drain_skips_cancelled_head():
    """A cancelled head leaves before its time is compared with the bound:
    the live event behind it decides whether the bounded run fires."""
    sim = Simulator()
    first = sim.schedule_at(1, lambda: None)
    sim.schedule_at(7, lambda: None)
    first.cancel()
    assert sim.run_until(5) == 0
    assert sim.pending_events == 1
    assert sim.run_until(7) == 1
    assert sim.pending_events == 0


def test_len_excludes_cancelled():
    sim = Simulator()
    keep = sim.schedule_at(1, lambda: None)
    drop = sim.schedule_at(2, lambda: None)
    drop.cancel()
    assert sim.pending_events == 1
    keep.cancel()
    assert sim.pending_events == 0


def test_cancel_is_idempotent_for_the_count():
    sim = Simulator()
    sim.schedule_at(1, lambda: None)
    event = sim.schedule_at(2, lambda: None)
    event.cancel()
    event.cancel()  # double cancel must not double-count
    assert sim.pending_events == 1


def test_cancel_after_pop_does_not_skew_count():
    sim = Simulator()
    fired = []
    event = sim.schedule_at(1, lambda: fired.append(event))
    sim.schedule_at(2, lambda: None)
    assert sim.step()
    assert fired == [event]
    event.cancel()  # the event already left the queue
    assert sim.pending_events == 1


def test_lazy_purge_compacts_dominating_dead_entries():
    sim = Simulator()
    events = [sim.schedule_at(t, lambda: None) for t in range(200)]
    for event in events[:150]:
        event.cancel()
    # The purge rebuilt the heap: far fewer entries than were pushed.
    assert len(sim._queue._heap) < 100
    assert sim.pending_events == 50
    assert fire_all(sim) == list(range(150, 200))


def test_pop_all_after_mixed_cancellations():
    sim = Simulator()
    events = [sim.schedule_at(t, lambda: None) for t in range(20)]
    for event in events[::2]:
        event.cancel()
    assert sim.pending_events == 10
    assert fire_all(sim) == list(range(1, 20, 2))
    assert sim.pending_events == 0
