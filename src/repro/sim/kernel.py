"""The discrete-event simulator.

A :class:`Simulator` owns the simulated clock and the event queue. Components
schedule callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and the simulator drains the
queue in :meth:`run` / :meth:`run_until` / :meth:`step`.

The drain loops dispatch in *batches*: when several events share the heap
head's timestamp, the whole equal-time run is drained off the heap first —
already in ``(priority, seq)`` order — and then fired from a local list,
instead of re-entering ``heappop`` (and re-sifting freshly pushed events)
between every two fires. An event scheduled *during* a batch for the same
instant still fires in exact ``(priority, seq)`` order: new events carry
later sequence numbers, so only a strictly more urgent priority can preempt
the remainder of a batch, and the loop checks for exactly that. A run
with an event budget must be able to stop between any two events, so it
fires them one at a time instead, as :meth:`step` does.
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
        popped for firing, or batched for dispatch), or ``time`` would
        move the deadline *earlier* (a stale heap entry can only be
        re-filed later). On success the event orders among same-time peers
        exactly as a freshly pushed one would.
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
            return self._drain_stepwise(None, 1) == 1
        finally:
            self._running = False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` fire).

        Returns the number of events fired. A budget of 0 fires nothing;
        a negative budget raises :class:`SimulationError`. Without a budget
        equal-time runs are dispatched in batches (see the module
        docstring).
        """
        max_events = self._check_budget(max_events)
        if max_events == 0:
            return 0
        self._begin_drain()
        try:
            if max_events is not None:
                return self._drain_stepwise(None, max_events)
            return self._drain_batched(None)
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
            if max_events is not None:
                fired = self._drain_stepwise(time, max_events)
                if fired < max_events:
                    self._now = time
                return fired
            fired = self._drain_batched(time)
            self._now = time
            return fired
        finally:
            self._running = False

    def _drain_batched(self, bound: Optional[int]) -> int:
        """Batched equal-time dispatch over the tuple heap.

        Fires every live event (with time <= ``bound``, when given) and
        returns the count. The caller owns the reentrancy guard and, for
        bounded runs, the final clock adjustment.
        """
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        fired = 0
        while heap:
            entry = heap[0]
            event = entry[3]
            # Normalize the head before reading its time: dead entries
            # leave, stale ones re-file at their rescheduled position.
            if event.cancelled:
                heappop(heap)
                queue._cancelled -= 1
                continue
            if event.seq != entry[2]:
                heappop(heap)
                heappush(
                    heap, (event.time, event.priority, event.seq, event)
                )
                continue
            now = entry[0]
            if bound is not None and now > bound:
                break
            # Drain the whole equal-time run: entries come off the heap
            # already sorted by (priority, seq). A stale entry re-filed
            # *into* this same instant can arrive out of order — rare
            # enough that detecting it and re-sorting once is cheaper than
            # keying every append.
            batch = []
            append = batch.append
            resort = False
            while heap and heap[0][0] == now:
                entry = heappop(heap)
                event = entry[3]
                if event.cancelled:
                    queue._cancelled -= 1
                    continue
                if event.seq != entry[2]:
                    heappush(
                        heap, (event.time, event.priority, event.seq, event)
                    )
                    if event.time == now:
                        resort = True
                    continue
                event._queue = None
                append(event)
            if not batch:
                continue
            if resort:
                batch.sort(key=lambda e: (e.priority, e.seq))
            self._now = now
            if len(batch) == 1:
                event = batch[0]
                self._events_processed += 1
                event.action()
                fired += 1
                continue
            for event in batch:
                # An action earlier in this batch may have scheduled a
                # *more urgent* event for this same instant; it must fire
                # before the remaining batch entries. (Equal or lower
                # urgency can never overtake: fresh events carry later
                # sequence numbers than everything already batched.)
                priority = event.priority
                while heap and heap[0][0] == now and heap[0][1] < priority:
                    head = heappop(heap)
                    urgent = head[3]
                    if urgent.cancelled:
                        queue._cancelled -= 1
                        continue
                    if urgent.seq != head[2]:
                        heappush(
                            heap,
                            (urgent.time, urgent.priority, urgent.seq, urgent),
                        )
                        continue
                    urgent._queue = None
                    self._events_processed += 1
                    urgent.action()
                    fired += 1
                # An action earlier in this batch may also have *cancelled*
                # a later batch entry; it was detached when batched, so the
                # flag is the only signal left.
                if event.cancelled:
                    continue
                self._events_processed += 1
                event.action()
                fired += 1
        return fired

    def _drain_stepwise(self, bound: Optional[int], budget: int) -> int:
        """One-at-a-time dispatch through the queue's own ``peek_time`` /
        ``pop``: at most ``budget`` events (with time <= ``bound``, when
        given). The caller owns the reentrancy guard."""
        queue = self._queue
        fired = 0
        while fired < budget:
            if bound is not None:
                next_time = queue.peek_time()
                if next_time is None or next_time > bound:
                    break
            event = queue.pop()
            if event is None:
                break
            self._now = event.time
            self._events_processed += 1
            event.action()
            fired += 1
        return fired

    def run_for(self, duration: int) -> int:
        """Run the simulation for ``duration`` ticks from the current time."""
        return self.run_until(self._now + duration)
