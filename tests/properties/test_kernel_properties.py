"""Property-based tests for the simulation kernel."""

from hypothesis import given, strategies as st

from repro.sim.kernel import Simulator

schedules = st.lists(st.integers(min_value=0, max_value=10_000), max_size=60)


@given(schedules)
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(schedules)
def test_queue_pop_order_matches_sorted_times(times):
    sim = Simulator()
    for time in times:
        sim.schedule_at(time, lambda: None)
    popped = []
    while sim.step():
        popped.append(sim.now)
    assert popped == sorted(times)


@given(schedules, st.integers(min_value=0, max_value=10_000))
def test_run_until_splits_execution_exactly(delays, boundary):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(d))
    sim.run_until(boundary)
    early = list(fired)
    assert all(d <= boundary for d in early)
    sim.run()
    assert sorted(fired) == sorted(delays)


@given(st.lists(st.tuples(st.integers(0, 1000), st.booleans()), max_size=40))
def test_cancelled_events_never_fire(plan):
    sim = Simulator()
    fired = []
    for delay, cancel in plan:
        event = sim.schedule(delay, lambda d=delay: fired.append(d))
        if cancel:
            event.cancel()
    sim.run()
    expected = sorted(d for d, cancel in plan if not cancel)
    assert sorted(fired) == expected
