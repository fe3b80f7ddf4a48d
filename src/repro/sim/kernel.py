"""The discrete-event simulator.

A :class:`Simulator` owns the simulated clock and the event queue. Components
schedule callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and the simulator drains the
queue in :meth:`run` / :meth:`run_until` / :meth:`step`.

All three drain through one loop that pops and fires one event at a time,
in exact ``(time, priority, seq)`` order: a frame costs O(1) events, so an
instant holds 1.5-2 of them on average on the benchmark workloads.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.sim.event import Event, EventQueue
from repro.sim.trace import TraceRecorder


class SimulationError(Exception):
    """Raised on kernel misuse (e.g. scheduling in the past)."""


class Simulator:
    """Deterministic discrete-event simulator with integer-tick time."""

    def __init__(
        self,
        trace: Optional[TraceRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[SpanTracer] = None,
    ) -> None:
        self._now = 0
        self._queue = EventQueue()
        self._trace = trace if trace is not None else TraceRecorder()
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._spans = spans if spans is not None else SpanTracer()
        self._spans.bind_clock(lambda: self._now)
        #: Reentrancy guard: set while a drain loop owns the heap. Calling
        #: run()/run_until()/step() from inside an event action would alias
        #: the drain state and silently double-drain, so it raises instead.
        self._running = False
        self._events_processed = 0
        #: class -> the simulation's one instance of it, created on first use
        #: (:meth:`repro.sim.timers.SurveillanceTable.of`, SWIM's hearing):
        #: state every node of a run shares lives with the run, not in a
        #: module global.
        self.shared: dict = {}

    @property
    def now(self) -> int:
        """Current simulation time in kernel ticks."""
        return self._now

    @property
    def trace(self) -> TraceRecorder:
        """The trace recorder shared by every component in this simulation."""
        return self._trace

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far."""
        return self._events_processed

    @property
    def metrics(self) -> MetricsRegistry:
        """The metrics registry shared by every component in this simulation."""
        return self._metrics

    @property
    def spans(self) -> SpanTracer:
        """The causal span tracer (disabled until ``spans.enabled = True``)."""
        return self._spans

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    @property
    def running(self) -> bool:
        """True while a drain loop (``run``/``run_until``/``step``) is active."""
        return self._running

    def schedule(
        self,
        delay: int,
        action: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule ``action`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self._queue.push(self._now + delay, action, priority)

    def schedule_at(
        self,
        time: int,
        action: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule ``action`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        return self._queue.push(time, action, priority)

    def try_reschedule(self, event: Event, time: int) -> bool:
        """Defer pending ``event`` to absolute ``time`` in place, if possible.

        Returns True on success. Falls back to False — caller cancels and
        schedules anew — whenever the in-place deferral cannot preserve
        exact semantics: the event is no longer owned by the queue (already
        popped for firing, or cancelled), or ``time`` would move the
        deadline *earlier* (a stale heap entry can only be re-filed later).
        On success the event orders among same-time peers exactly as a
        freshly pushed one would.
        """
        queue = self._queue
        if (
            event._queue is not queue
            or event.cancelled
            or time < event.time
            or time < self._now
        ):
            return False
        queue.reschedule(event, time)
        return True

    # -- drain helpers ----------------------------------------------------------

    @staticmethod
    def _check_budget(max_events: Optional[int]) -> Optional[int]:
        if max_events is not None and max_events < 0:
            raise SimulationError(f"negative event budget: {max_events}")
        return max_events

    def _begin_drain(self) -> None:
        if self._running:
            raise SimulationError(
                "run()/run_until()/step() re-entered from inside an event "
                "action; "
                "schedule follow-up work instead of draining recursively"
            )
        self._running = True

    def step(self) -> bool:
        """Fire the next event. Returns ``False`` when the queue is empty."""
        self._begin_drain()
        try:
            return self._drain(None, 1) == 1
        finally:
            self._running = False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` fire).

        Returns the number of events fired. A budget of 0 fires nothing;
        a negative budget raises :class:`SimulationError`.
        """
        max_events = self._check_budget(max_events)
        if max_events == 0:
            return 0
        self._begin_drain()
        try:
            return self._drain(None, max_events)
        finally:
            self._running = False

    def run_until(self, time: int, max_events: Optional[int] = None) -> int:
        """Run every event scheduled at or before ``time``.

        Returns the number of events fired. The clock is advanced to
        exactly ``time`` afterwards, even if the queue drained earlier —
        *unless* an event budget was given and exhausted first, in which
        case the clock stays at the last fired event (the same budget
        semantics as :meth:`run`; a budget of 0 fires nothing and leaves
        the clock untouched).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot run until {time}, current time is {self._now}"
            )
        max_events = self._check_budget(max_events)
        if max_events == 0:
            return 0
        self._begin_drain()
        try:
            fired = self._drain(time, max_events)
            if fired != max_events:  # no budget, or one left unspent
                self._now = time
            return fired
        finally:
            self._running = False

    def _drain(self, bound: Optional[int], budget: Optional[int]) -> int:
        """Fire live events in ``(time, priority, seq)`` order — those with
        time <= ``bound``, when given, and at most ``budget`` of them, when
        given — and return the count. The caller owns the reentrancy guard
        and, for bounded runs, the final clock adjustment.

        The queue's one consumer, reading its tuple heap directly: the head
        is normalised first (dead entries leave, stale ones re-file at their
        rescheduled position), so its time can be compared with ``bound``
        before anything is taken off. A fired event is detached from the
        queue, so a late ``cancel()`` on it does not skew the live count.
        """
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        fired = 0
        while heap and fired != budget:  # no budget: ``None`` never matches
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                heappop(heap)
                queue._cancelled -= 1
                continue
            if event.seq != entry[2]:
                heapreplace(heap, (event.time, event.priority, event.seq, event))
                continue
            if bound is not None and entry[0] > bound:
                break
            heappop(heap)
            event._queue = None
            self._now = entry[0]
            self._events_processed += 1
            event.action()
            fired += 1
        return fired

    def run_for(self, duration: int) -> int:
        """Run the simulation for ``duration`` ticks from the current time."""
        return self.run_until(self._now + duration)
