"""Timer service exposing the ``start_alarm`` / ``cancel_alarm`` idiom.

The CANELy pseudocode (Figs. 7-9 of the paper) manipulates timers through
``tid := start_alarm(duration)`` and ``cancel_alarm(tid)``; expiry fires a
``when alarm(tid) expires`` clause. :class:`TimerService` reproduces exactly
that interface on top of the simulator.

:meth:`TimerService.restart_alarm` is the hot-path companion: surveillance
timers are cancelled and re-armed on *every* observed frame, and the
restart defers the alarm's kernel event in place (O(1) field updates, no
cancel/allocate/heappush churn) whenever the queue supports it — ordering
stays bit-identical to cancel-and-start because the kernel allocates a
fresh sequence number either way.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.sim.event import Event
from repro.sim.kernel import Simulator

class Alarm:
    """Handle for a pending alarm (the ``tid`` of the pseudocode).

    The handle itself carries the armed/fired state and the expiry
    callback: arming an alarm costs one object and one scheduled event,
    with no per-alarm closure and no registry bookkeeping. Surveillance
    timers restart on every observed frame, so this path is one of the
    hottest in the whole simulation.
    """

    __slots__ = (
        "alarm_id",
        "deadline",
        "_event",
        "_on_expire",
        "_service",
        "_active",
        "_span",
    )

    def __init__(
        self,
        alarm_id: int,
        deadline: int,
        on_expire: Callable[[], None],
        service: "TimerService",
    ) -> None:
        self.alarm_id = alarm_id
        self.deadline = deadline
        self._event: Optional[Event] = None
        self._on_expire = on_expire
        self._service = service
        self._active = True
        self._span: Optional[int] = None

    def _fire(self) -> None:
        # Cancelled events never reach here; just retire and deliver.
        self._active = False
        self._service._pending -= 1
        if self._span is None:
            self._on_expire()
            return
        # The timer span ends at expiry; everything the callback triggers
        # (failure-sign requests, membership cycles, ...) is causally *its*
        # consequence, so the span stays pushed as context around the call.
        spans = self._service._spans
        spans.end(self._span, outcome="fired")
        spans.push(self._span)
        try:
            self._on_expire()
        finally:
            spans.pop()

    def __repr__(self) -> str:
        return f"Alarm(id={self.alarm_id}, deadline={self.deadline})"


class TimerService:
    """Per-node alarm manager backed by a :class:`Simulator`.

    ``drift`` models the node's oscillator deviation: every armed duration
    is stretched by ``(1 + drift)`` — e.g. ``drift=1e-4`` (100 ppm) makes a
    10 ms alarm fire 1 µs late. Protocol timers in real CANELy nodes run on
    exactly such imperfect clocks; the integration tests assert the suite
    tolerates realistic drifts.
    """

    def __init__(self, sim: Simulator, drift: float = 0.0, node: int = -1) -> None:
        if drift <= -1.0:
            raise ValueError(f"drift must exceed -1: {drift}")
        self._sim = sim
        self._drift = drift
        self._ids = itertools.count(1)
        self._pending = 0
        self._node = node
        self._spans = sim.spans
        # The queue's reschedule capability is fixed for the simulator's
        # lifetime; resolving it here keeps the per-frame restart below
        # free of getattr probes.
        self._can_reschedule = getattr(
            sim._queue, "SUPPORTS_RESCHEDULE", False
        )
        #: True when :meth:`restart_alarm`'s fast path needs no duration
        #: stretch: reschedulable queue, zero drift. Hot callers (the
        #: failure detector's activity clause) use this to inline the
        #: rearm down to the queue's in-place reschedule.
        self._rearm_plain = self._can_reschedule and drift == 0.0

    @property
    def drift(self) -> float:
        """The oscillator deviation applied to every duration."""
        return self._drift

    @property
    def sim(self) -> Simulator:
        """The simulator this service schedules on."""
        return self._sim

    def start_alarm(
        self,
        duration: int,
        on_expire: Callable[[], None],
        name: str = "timer",
        tag: Optional[int] = None,
    ) -> Alarm:
        """Arm an alarm ``duration`` ticks from now; returns its handle.

        A zero-duration alarm fires at the current instant regardless of
        drift — drift stretches a *duration*, and a zero duration has
        nothing to stretch. Negative durations are a caller bug.

        ``name``/``tag`` label the alarm's causal span (e.g. the
        ``"fd.surveillance"`` span of the timer watching node ``tag``);
        they are ignored while span tracing is disabled.
        """
        duration = self._stretch(duration)
        alarm = Alarm(next(self._ids), self._sim.now + duration, on_expire, self)
        alarm._event = self._sim.schedule(duration, alarm._fire)
        self._pending += 1
        if self._spans.enabled:
            if tag is None:
                alarm._span = self._spans.begin(name, "timers", node=self._node)
            else:
                alarm._span = self._spans.begin(
                    name, "timers", node=self._node, tag=tag
                )
        return alarm

    def _stretch(self, duration: int) -> int:
        if duration < 0:
            raise ValueError(f"alarm duration must be non-negative: {duration}")
        if self._drift and duration:
            # A nonzero duration never rounds below one tick: an alarm that
            # was armed to fire strictly later must not fire immediately
            # just because the oscillator runs fast.
            duration = max(1, round(duration * (1.0 + self._drift)))
        return duration

    def restart_alarm(self, alarm: Optional[Alarm], duration: int) -> bool:
        """Re-arm ``alarm`` to expire ``duration`` ticks from now, in place.

        The cancel-and-start idiom collapsed into O(1) field updates: the
        alarm keeps its handle, callback and span-free identity, and its
        kernel event is deferred without leaving a dead heap entry behind.
        Returns False — and touches nothing — when the fast path cannot
        apply (alarm inactive or ``None``, span tracing active, the
        seed-faithful legacy queue, or a deadline that would move
        *earlier*); the caller then falls back to
        :meth:`cancel_alarm` + :meth:`start_alarm`, which is exactly
        equivalent. Either path consumes one event sequence number, so
        simulated outcomes are bit-identical.
        """
        if (
            not self._can_reschedule
            or alarm is None
            or not alarm._active
            or alarm._span is not None
            or self._spans.enabled
        ):
            return False
        # Inlined ``_stretch`` + ``Simulator.try_reschedule``: this runs
        # once per observed frame per monitored node, and the call layers
        # are measurable at that rate. Semantics match the kernel method
        # exactly (``duration >= 0`` already implies the new deadline is
        # not in the past).
        if duration < 0:
            raise ValueError(f"alarm duration must be non-negative: {duration}")
        if self._drift and duration:
            duration = max(1, round(duration * (1.0 + self._drift)))
        sim = self._sim
        event = alarm._event
        queue = sim._queue
        if event._queue is not queue or event.cancelled:
            return False
        deadline = sim._now + duration
        if deadline < event.time:
            return False
        queue.reschedule(event, deadline)
        alarm.deadline = deadline
        return True

    def cancel_alarm(self, alarm: Optional[Alarm]) -> None:
        """Disarm ``alarm``. Cancelling ``None`` or a fired alarm is a no-op."""
        if alarm is None or not alarm._active:
            return
        alarm._active = False
        service = alarm._service
        service._pending -= 1
        alarm._event.cancel()
        if alarm._span is not None:
            service._spans.end(alarm._span, outcome="cancelled")

    def is_pending(self, alarm: Optional[Alarm]) -> bool:
        """True while ``alarm`` is armed and has not yet fired."""
        return alarm is not None and alarm._active

    @property
    def pending_count(self) -> int:
        """Number of currently armed alarms."""
        return self._pending
