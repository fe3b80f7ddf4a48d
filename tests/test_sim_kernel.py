"""Unit tests for the simulator kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


def test_initial_time_is_zero():
    assert Simulator().now == 0


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(100, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [100]
    assert sim.now == 100


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(50, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [50]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_run_until_stops_at_boundary():
    sim = Simulator()
    seen = []
    sim.schedule(10, lambda: seen.append("early"))
    sim.schedule(100, lambda: seen.append("late"))
    sim.run_until(50)
    assert seen == ["early"]
    assert sim.now == 50
    sim.run_until(100)
    assert seen == ["early", "late"]


def test_run_until_includes_events_at_exact_time():
    sim = Simulator()
    seen = []
    sim.schedule(50, lambda: seen.append(1))
    sim.run_until(50)
    assert seen == [1]


def test_run_until_past_rejected():
    sim = Simulator()
    sim.run_until(10)
    with pytest.raises(SimulationError):
        sim.run_until(5)


def test_run_for_advances_relative():
    sim = Simulator()
    sim.run_until(100)
    sim.run_for(50)
    assert sim.now == 150


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def chain():
        seen.append(sim.now)
        if sim.now < 30:
            sim.schedule(10, chain)

    sim.schedule(10, chain)
    sim.run()
    assert seen == [10, 20, 30]


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


def test_run_max_events():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.schedule(i + 1, lambda i=i: seen.append(i))
    sim.run(max_events=3)
    assert seen == [0, 1, 2]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    event = sim.schedule(10, lambda: seen.append("no"))
    sim.schedule(5, event.cancel)
    sim.run()
    assert seen == []


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(i + 1, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    event = sim.schedule(20, lambda: None)
    assert sim.pending_events == 2
    event.cancel()
    assert sim.pending_events == 1


def test_pending_events_survives_heavy_cancel_rearm():
    """The surveillance-timer idiom: cancel + re-arm on every frame."""
    sim = Simulator()
    live = None
    for i in range(500):
        if live is not None:
            live.cancel()
        live = sim.schedule(1000 + i, lambda: None)
    assert sim.pending_events == 1


def test_metrics_registry_attached():
    sim = Simulator()
    sim.metrics.counter("x").inc(3)
    assert sim.metrics.counter("x").value == 3


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    sim.schedule(10, lambda: order.append("a"))
    sim.schedule(10, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b"]


# -- event budgets (run/run_until return counts; a 0 budget fires nothing) ----


# The one value keeps the ``[fast]`` ids these tests had beside ``[legacy]``.
@pytest.fixture(params=["fast"])
def any_sim():
    return Simulator()


def test_run_returns_fired_count(any_sim):
    for i in range(5):
        any_sim.schedule(i + 1, lambda: None)
    assert any_sim.run() == 5


def test_run_zero_budget_fires_nothing(any_sim):
    """Regression: ``max_events=0`` used to fire one event anyway."""
    seen = []
    any_sim.schedule(10, lambda: seen.append(1))
    assert any_sim.run(max_events=0) == 0
    assert seen == []
    assert any_sim.now == 0
    assert any_sim.pending_events == 1


def test_run_until_zero_budget_fires_nothing_and_keeps_clock(any_sim):
    seen = []
    any_sim.schedule(10, lambda: seen.append(1))
    assert any_sim.run_until(50, max_events=0) == 0
    assert seen == []
    assert any_sim.now == 0


def test_run_negative_budget_rejected(any_sim):
    with pytest.raises(SimulationError):
        any_sim.run(max_events=-1)
    with pytest.raises(SimulationError):
        any_sim.run_until(10, max_events=-1)


def test_run_budget_stops_exactly(any_sim):
    seen = []
    for i in range(5):
        any_sim.schedule(i + 1, lambda i=i: seen.append(i))
    assert any_sim.run(max_events=3) == 3
    assert seen == [0, 1, 2]
    assert any_sim.now == 3  # clock stays at the last fired event


def test_run_until_budget_exhausted_keeps_clock_at_last_event(any_sim):
    for i in range(5):
        any_sim.schedule(i + 1, lambda: None)
    assert any_sim.run_until(100, max_events=2) == 2
    assert any_sim.now == 2


def test_run_until_budget_not_exhausted_advances_clock(any_sim):
    any_sim.schedule(10, lambda: None)
    assert any_sim.run_until(100, max_events=5) == 1
    assert any_sim.now == 100


def test_run_until_returns_fired_count(any_sim):
    for i in range(4):
        any_sim.schedule(i + 1, lambda: None)
    assert any_sim.run_until(2) == 2
    assert any_sim.run_until(10) == 2


# -- reentrancy guard ---------------------------------------------------------


def test_nested_run_raises(any_sim):
    errors = []

    def nested():
        try:
            any_sim.run()
        except SimulationError as exc:
            errors.append(str(exc))

    any_sim.schedule(10, nested)
    any_sim.run()
    assert len(errors) == 1
    assert "re-entered" in errors[0]
    # The guard must reset: a fresh drain works.
    any_sim.schedule(5, lambda: None)
    assert any_sim.run() == 1


def test_nested_run_until_raises(any_sim):
    errors = []
    any_sim.schedule(10, lambda: errors.append(0) or any_sim.run_until(99))
    with pytest.raises(SimulationError, match="re-entered"):
        any_sim.run_until(50)


def test_step_holds_the_reentrancy_guard(any_sim):
    """step() is a drain loop too: an action it fires sees ``running`` and
    cannot drain recursively."""
    seen = []

    def nested():
        seen.append(any_sim.running)
        for drain_again in (any_sim.run, any_sim.step):
            with pytest.raises(SimulationError):
                drain_again()

    any_sim.schedule(10, nested)
    any_sim.schedule(20, lambda: seen.append("later"))
    assert any_sim.step() is True
    assert seen == [True]
    assert any_sim.now == 10
    assert not any_sim.running
    assert any_sim.step() is True
    assert seen == [True, "later"]


def test_running_property_reflects_drain(any_sim):
    states = []
    any_sim.schedule(10, lambda: states.append(any_sim.running))
    assert not any_sim.running
    any_sim.run()
    assert states == [True]
    assert not any_sim.running


def test_run_for_returns_fired_count(any_sim):
    any_sim.schedule(10, lambda: None)
    any_sim.schedule(20, lambda: None)
    assert any_sim.run_for(15) == 1
    assert any_sim.now == 15


# -- same-timestamp order, through both entry points --------------------------


def entry_points():
    # Booleans, not names, keep the tests' ids stable.
    return [True, False]


def drain(sim, unbudgeted):
    """``run()`` and ``run(max_events=...)``: two entry points, one loop."""
    return sim.run() if unbudgeted else sim.run(max_events=10**9)


@pytest.mark.parametrize("unbudgeted", entry_points())
def test_same_time_priority_order(unbudgeted):
    sim = Simulator()
    order = []
    sim.schedule(10, lambda: order.append("low"), priority=5)
    sim.schedule(10, lambda: order.append("high"), priority=0)
    sim.schedule(10, lambda: order.append("low2"), priority=5)
    drain(sim, unbudgeted)
    assert order == ["high", "low", "low2"]


@pytest.mark.parametrize("unbudgeted", entry_points())
def test_urgent_event_scheduled_mid_batch_preempts(unbudgeted):
    """An action scheduling a *more urgent* same-instant event sees it fire
    before the remaining same-instant events."""
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0, lambda: order.append("urgent"), priority=-1)

    sim.schedule(10, first, priority=0)
    sim.schedule(10, lambda: order.append("second"), priority=0)
    drain(sim, unbudgeted)
    assert order == ["first", "urgent", "second"]


@pytest.mark.parametrize("unbudgeted", entry_points())
def test_equal_priority_scheduled_mid_batch_fires_after(unbudgeted):
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0, lambda: order.append("late"), priority=0)

    sim.schedule(10, first, priority=0)
    sim.schedule(10, lambda: order.append("second"), priority=0)
    drain(sim, unbudgeted)
    assert order == ["first", "second", "late"]


@pytest.mark.parametrize("unbudgeted", entry_points())
def test_mid_batch_cancel_skips_detached_event(unbudgeted):
    """An action cancelling a *later* same-instant event must suppress it."""
    sim = Simulator()
    order = []
    box = {}
    # Scheduled first so it fires first; cancels the later entry.
    sim.schedule(10, lambda: (order.append("killer"), box["victim"].cancel()))
    box["victim"] = sim.schedule(10, lambda: order.append("victim"))
    drain(sim, unbudgeted)
    assert order == ["killer"]


@pytest.mark.parametrize("unbudgeted", entry_points())
def test_rescheduled_event_orders_like_fresh_push(unbudgeted):
    """In-place reschedule is order-equivalent to cancel + push."""
    sim = Simulator()
    order = []
    moved = sim.schedule(10, lambda: order.append("moved"))
    sim.schedule(20, lambda: order.append("peer"))
    assert sim.try_reschedule(moved, 20)
    drain(sim, unbudgeted)
    # The reschedule consumed a fresh seq, so "moved" now follows "peer".
    assert order == ["peer", "moved"]


@pytest.mark.parametrize("unbudgeted", entry_points())
def test_same_instant_deferral_in_place_fires_at_new_deadline(unbudgeted):
    """An event a same-instant peer's action defers in place fires at its
    new deadline, after the same number of kernel events as the
    cancel-and-push idiom."""

    def scenario(in_place):
        sim = Simulator()
        fired = []
        box = {}

        def peer():
            fired.append(("peer", sim.now))
            if in_place:
                assert sim.try_reschedule(box["deferred"], sim.now + 50)
            else:
                box["deferred"].cancel()
                sim.schedule(50, deferred)

        def deferred():
            fired.append(("deferred", sim.now))

        sim.schedule(10, peer)
        box["deferred"] = sim.schedule(10, deferred)
        sim.schedule(60, lambda: fired.append(("later", sim.now)))
        drain(sim, unbudgeted)
        return fired, sim.events_processed

    in_place = scenario(True)
    assert in_place[0] == [("peer", 10), ("later", 60), ("deferred", 60)]
    assert in_place == scenario(False)


# -- try_reschedule -----------------------------------------------------------


def test_try_reschedule_defers_in_place():
    sim = Simulator()
    fired = []
    event = sim.schedule(10, lambda: fired.append(sim.now))
    assert sim.try_reschedule(event, 40)
    assert sim.pending_events == 1
    sim.run()
    assert fired == [40]


def test_try_reschedule_refuses_earlier_deadline():
    sim = Simulator()
    event = sim.schedule(50, lambda: None)
    assert not sim.try_reschedule(event, 10)


def test_try_reschedule_refuses_cancelled_event():
    sim = Simulator()
    event = sim.schedule(10, lambda: None)
    event.cancel()
    assert not sim.try_reschedule(event, 20)


def test_try_reschedule_refuses_detached_event():
    sim = Simulator()
    box = {}

    def action():
        # While firing, the event is no longer owned by the queue.
        box["result"] = sim.try_reschedule(box["event"], sim.now + 10)

    box["event"] = sim.schedule(10, action)
    sim.run()
    assert box["result"] is False


# -- slots --------------------------------------------------------------------


def _marker_or_slot(sim, time, use_slot, action):
    """A slot at ``time``, or the event it stands for: an event in the
    slot's place that schedules ``action`` with zero delay."""
    if use_slot:
        slot = sim.slot(time)
        assert sim.fill(slot, action)
    else:
        sim.schedule_at(time, lambda: sim.schedule(0, action))


@pytest.mark.parametrize("unbudgeted", entry_points())
def test_a_slot_fires_where_a_zero_delay_event_from_its_place_would(unbudgeted):
    """Every event queued for the slot's instant when its turn comes fires
    before it (``early-chain`` too, scheduled at that instant before the
    turn); one scheduled at that instant after the turn fires after it."""

    def scenario(use_slot):
        sim = Simulator()
        order = []

        def early():
            order.append("early")
            sim.schedule(0, lambda: order.append("early-chain"))

        def late():
            order.append("late")
            sim.schedule(0, lambda: order.append("late-chain"))

        sim.schedule_at(10, early)
        _marker_or_slot(sim, 10, use_slot, lambda: order.append("slot"))
        sim.schedule_at(10, late)
        drain(sim, unbudgeted)
        return order, sim.events_processed

    order, events = scenario(True)
    assert order == ["early", "late", "early-chain", "slot", "late-chain"]
    assert (order, events + 1) == scenario(False)


def test_a_slot_takes_its_place_only_within_the_run_bound():
    """A slot past ``run_until``'s bound keeps its place: an event scheduled
    for its instant afterwards still fires before it."""

    def scenario(use_slot):
        sim = Simulator()
        order = []
        _marker_or_slot(sim, 10, use_slot, lambda: order.append("slot"))
        sim.run_until(5)
        sim.schedule_at(10, lambda: order.append("later"))
        sim.run()
        return order

    assert scenario(True) == scenario(False) == ["later", "slot"]


def test_an_empty_slot_leaves_without_firing():
    sim = Simulator()
    slot = sim.slot(10)
    sim.schedule_at(10, lambda: None)
    assert sim.run() == 1
    assert sim.events_processed == 1
    assert not sim.fill(slot, lambda: None)


def test_a_slot_filled_after_its_turn_fires_in_its_place():
    """Filled by an event that fires after the slot's turn, the slot still
    fires before the events scheduled after that turn."""
    sim = Simulator()
    order = []
    slot = sim.slot(10)

    def filler():
        order.append("filler")
        sim.schedule(0, lambda: order.append("chain"))
        assert sim.fill(slot, lambda: order.append("slot"))

    sim.schedule_at(10, filler)
    sim.run()
    assert order == ["filler", "slot", "chain"]
    assert not sim.fill(slot, lambda: None)


def test_a_slot_keeps_its_place_through_a_heap_purge():
    sim = Simulator()
    order = []
    slot = sim.slot(10)
    sim.schedule_at(10, lambda: order.append("peer"))
    # Enough cancellations to compact the heap while the slot waits.
    for event in [sim.schedule_at(20, lambda: None) for _ in range(200)]:
        event.cancel()
    assert len(sim._queue._heap) < 200
    sim.fill(slot, lambda: order.append("slot"))
    sim.run()
    assert order == ["peer", "slot"]


def test_slot_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.slot(5)
