"""Unit tests for the start_alarm / cancel_alarm timer service."""

import gc

import pytest

from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.sim.clock import ms
from repro.sim.event import Event
from repro.sim.kernel import Simulator
from repro.sim.timers import Alarm, TimerService


def make():
    sim = Simulator()
    return sim, TimerService(sim)


def test_alarm_fires_at_deadline():
    sim, timers = make()
    fired = []
    timers.start_alarm(100, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [100]


def test_cancel_before_expiry():
    sim, timers = make()
    fired = []
    alarm = timers.start_alarm(100, lambda: fired.append(1))
    timers.cancel_alarm(alarm)
    sim.run()
    assert fired == []


def test_cancel_none_is_noop():
    _, timers = make()
    timers.cancel_alarm(None)


def test_cancel_after_fire_is_noop():
    sim, timers = make()
    alarm = timers.start_alarm(10, lambda: None)
    sim.run()
    timers.cancel_alarm(alarm)  # must not raise


def test_is_pending_lifecycle():
    sim, timers = make()
    alarm = timers.start_alarm(10, lambda: None)
    assert timers.is_pending(alarm)
    sim.run()
    assert not timers.is_pending(alarm)


def test_is_pending_after_cancel():
    _, timers = make()
    alarm = timers.start_alarm(10, lambda: None)
    timers.cancel_alarm(alarm)
    assert not timers.is_pending(alarm)


def test_is_pending_none():
    _, timers = make()
    assert not timers.is_pending(None)


def test_pending_count():
    sim, timers = make()
    timers.start_alarm(10, lambda: None)
    timers.start_alarm(20, lambda: None)
    assert timers.pending_count == 2
    sim.run_until(15)
    assert timers.pending_count == 1


def test_alarm_ids_unique():
    _, timers = make()
    first = timers.start_alarm(10, lambda: None)
    second = timers.start_alarm(10, lambda: None)
    assert first.alarm_id != second.alarm_id


def test_deadline_recorded():
    sim, timers = make()
    sim.run_until(40)
    alarm = timers.start_alarm(60, lambda: None)
    assert alarm.deadline == 100


def test_negative_duration_rejected():
    _, timers = make()
    with pytest.raises(ValueError):
        timers.start_alarm(-1, lambda: None)


def test_zero_duration_fires_now_even_with_drift():
    sim = Simulator()
    timers = TimerService(sim, drift=1e-4)
    fired = []
    timers.start_alarm(0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0]


def test_drift_stretches_duration():
    sim = Simulator()
    timers = TimerService(sim, drift=0.5)
    fired = []
    timers.start_alarm(100, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [150]


def test_fast_clock_never_rounds_a_duration_to_zero():
    """duration=1 with a fast oscillator must still fire strictly later."""
    sim = Simulator()
    timers = TimerService(sim, drift=-0.9)
    alarm = timers.start_alarm(1, lambda: None)
    assert alarm.deadline == 1


def test_sim_property_exposes_kernel():
    sim, timers = make()
    assert timers.sim is sim


def test_restart_pattern():
    """The failure-detector idiom: cancel + re-arm postpones expiry."""
    sim, timers = make()
    fired = []
    alarm = timers.start_alarm(100, lambda: fired.append(sim.now))
    sim.run_until(50)
    timers.cancel_alarm(alarm)
    timers.start_alarm(100, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [150]


# -- restart_alarm (the in-place surveillance rearm) --------------------------


def test_restart_alarm_defers_in_place():
    sim, timers = make()
    fired = []
    alarm = timers.start_alarm(100, lambda: fired.append(sim.now))
    sim.run_until(50)
    assert timers.restart_alarm(alarm, 100)
    assert alarm.deadline == 150
    sim.run()
    assert fired == [150]
    assert timers.pending_count == 0


def test_restart_alarm_keeps_handle_identity():
    sim, timers = make()
    alarm = timers.start_alarm(100, lambda: None)
    alarm_id = alarm.alarm_id
    assert timers.restart_alarm(alarm, 200)
    assert alarm.alarm_id == alarm_id
    assert timers.is_pending(alarm)


def test_restart_alarm_applies_drift():
    sim = Simulator()
    timers = TimerService(sim, drift=0.5)
    fired = []
    alarm = timers.start_alarm(100, lambda: fired.append(sim.now))
    assert timers.restart_alarm(alarm, 200)
    assert alarm.deadline == 300
    sim.run()
    assert fired == [300]


def test_restart_alarm_negative_duration_rejected():
    _, timers = make()
    alarm = timers.start_alarm(10, lambda: None)
    with pytest.raises(ValueError):
        timers.restart_alarm(alarm, -1)


def test_restart_alarm_refuses_none_and_inactive():
    sim, timers = make()
    assert not timers.restart_alarm(None, 10)
    fired_alarm = timers.start_alarm(10, lambda: None)
    sim.run()
    assert not timers.restart_alarm(fired_alarm, 10)
    cancelled_alarm = timers.start_alarm(10, lambda: None)
    timers.cancel_alarm(cancelled_alarm)
    assert not timers.restart_alarm(cancelled_alarm, 10)


def test_restart_alarm_refuses_earlier_deadline():
    sim, timers = make()
    alarm = timers.start_alarm(100, lambda: None)
    assert not timers.restart_alarm(alarm, 10)
    assert alarm.deadline == 100


def test_restart_alarm_refuses_when_spans_enabled():
    sim, timers = make()
    alarm = timers.start_alarm(100, lambda: None)
    sim.spans.enabled = True
    try:
        assert not timers.restart_alarm(alarm, 200)
    finally:
        sim.spans.enabled = False


def test_restart_equivalent_to_cancel_and_start():
    """Bit-identical outcome: restart vs the seed cancel-and-start idiom,
    including the interleaving with an independent same-deadline alarm."""

    def drive(use_restart):
        sim, timers = make()
        fired = []
        watched = timers.start_alarm(100, lambda: fired.append(("w", sim.now)))
        timers.start_alarm(150, lambda: fired.append(("peer", sim.now)))
        sim.run_until(50)
        if use_restart:
            assert timers.restart_alarm(watched, 100)
        else:
            timers.cancel_alarm(watched)
            timers.start_alarm(100, lambda: fired.append(("w", sim.now)))
        sim.run()
        return fired, sim.events_processed

    assert drive(True) == drive(False)


# -- same-instant fire batches -------------------------------------------------


def test_same_deadline_fires_in_arm_order():
    sim, timers = make()
    fired = []
    for label in "abcde":
        timers.start_alarm(100, lambda l=label: fired.append(l))
    sim.run()
    assert fired == list("abcde")


def test_cancel_during_fire_batch():
    """Two alarms due at the same instant; the first callback cancels the
    second mid-batch, after the kernel already detached it for firing."""
    sim, timers = make()
    fired = []
    second = [None]

    def first_cb():
        fired.append("first")
        timers.cancel_alarm(second[0])

    timers.start_alarm(100, first_cb)
    second[0] = timers.start_alarm(100, lambda: fired.append("second"))
    sim.run()
    assert fired == ["first"]
    assert timers.pending_count == 0


def test_rearm_during_fire_batch():
    """A same-instant callback pushing a peer's deadline forward must defer
    that peer's expiry, whether the in-place restart applies (the peer is
    still owned by the queue) or the cancel-and-start fallback takes over."""
    sim, timers = make()
    fired = []
    peer = [None]

    def peer_cb():
        fired.append(("peer", sim.now))

    def first_cb():
        fired.append(("first", sim.now))
        if not timers.restart_alarm(peer[0], 50):
            timers.cancel_alarm(peer[0])
            peer[0] = timers.start_alarm(50, peer_cb)

    timers.start_alarm(100, first_cb)
    peer[0] = timers.start_alarm(100, peer_cb)
    sim.run()
    assert fired == [("first", 100), ("peer", 150)]


@pytest.mark.parametrize("backend", ["canely", "swim"])
def test_a_spent_alarm_is_freed_by_its_last_reference(backend):
    """A fired or cancelled alarm lets go of its kernel event, which holds
    the alarm's ``_fire``: no alarm or event waits for the cycle collector
    after a run (bootstrap, a crash, its detection), the network still
    alive."""
    config = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        net = CanelyNetwork(6, config=config, backend=backend)
        net.scenario().bootstrap().crash(5, at=ms(50)).run_for(ms(300))
        gc.collect()
        cyclic = [obj for obj in gc.garbage if isinstance(obj, (Alarm, Event))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert net.sim.events_processed > 100
    assert cyclic == []
