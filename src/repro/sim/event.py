"""Events and the pending-event queue.

Events are ordered by ``(time, priority, seq)``. The sequence number breaks
ties deterministically in insertion order, so two events scheduled for the
same instant always fire in the order they were scheduled.

The heap stores plain ``(time, priority, seq, event)`` tuples — heap sifts
compare native tuples (never the :class:`Event` handle: ``seq`` is unique)
instead of going through a generated dataclass ``__lt__`` that rebuilds
comparison tuples on every swap. The :class:`Event` is a slotted handle
kept only for cancellation and for handing the callback to the kernel.

Cancelled events stay in the heap (removing an arbitrary heap entry is
O(n)) but the queue counts them, so ``len(queue)`` reports *live* events
only, and compacts the heap once dead entries dominate — long membership
campaigns cancel-and-rearm surveillance timers on every frame, and without
the purge those dead entries would accumulate for the whole run.

Rescheduling (:meth:`EventQueue.reschedule`) postpones a pending event
*in place*: the event's ``time``/``seq`` fields are updated and its stale
heap entry is repaired lazily when it surfaces, so the surveillance-timer
rearm — the hottest operation in a membership simulation — costs a few
attribute writes instead of a cancel, an :class:`Event` allocation and a
``heappush``. A fresh sequence number is allocated on every reschedule, so
the resulting ``(time, priority, seq)`` order is *identical* to the
cancel-and-push idiom it replaces: traces stay bit-for-bit equal.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

#: Compact the heap only past this size (small heaps aren't worth it).
_PURGE_MIN_HEAP = 64


class Event:
    """A scheduled callback.

    Attributes:
        time: absolute simulation time (kernel ticks) at which to fire.
        priority: lower fires first among events at the same time.
        seq: insertion sequence number, the final tie-breaker.
        action: the zero-argument callable invoked when the event fires.
        cancelled: cancelled events stay in the heap but are skipped.

    ``time`` and ``seq`` are rewritten by :meth:`EventQueue.reschedule`;
    a heap entry whose ``seq`` no longer matches its event is *stale* and
    is re-filed (never fired) when it reaches the top of the heap.
    """

    __slots__ = ("time", "priority", "seq", "action", "cancelled", "_queue")

    def __init__(
        self,
        time: int,
        priority: int,
        seq: int,
        action: Callable[[], None],
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.cancelled = False
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Mark the event so the simulator skips it."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()
            self._queue = None


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects.

    The queue only files events; :meth:`Simulator._drain
    <repro.sim.kernel.Simulator._drain>` is the one loop that takes them
    off, skipping cancelled entries and re-filing stale ones.
    """

    def __init__(self) -> None:
        #: ``(time, priority, seq, event)`` tuples; the kernel's drain loop
        #: pops and fires straight off this layout.
        self._heap: list = []
        self._seq = 0
        self._cancelled = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) pending events."""
        return len(self._heap) - self._cancelled

    def push(
        self,
        time: int,
        action: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule ``action`` at absolute ``time`` and return its event."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, action)
        event._queue = self
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def reschedule(self, event: Event, time: int) -> None:
        """Defer pending ``event`` to fire at ``time`` instead, in place.

        ``time`` must be at or after the event's current deadline — the
        stale heap entry is repaired lazily when popped, and an entry can
        only be re-filed *later* without losing heap order. A fresh
        sequence number is consumed so the event orders among same-time
        peers exactly as if it had been cancelled and pushed anew.

        Callers must ensure the event is live and still owned by this
        queue (``event._queue is self``); :meth:`Simulator.try_reschedule
        <repro.sim.kernel.Simulator.try_reschedule>` wraps those checks.
        """
        seq = self._seq
        self._seq = seq + 1
        event.time = time
        event.seq = seq

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        # Lazy purge: rebuild the heap once cancelled entries outnumber the
        # live ones, so dead entries never occupy more than half the heap.
        # In place — the kernel's inlined run loop aliases the heap list.
        # Entries are rebuilt from their events' current fields, which also
        # repairs any entry left stale by reschedule().
        heap = self._heap
        if len(heap) > _PURGE_MIN_HEAP and self._cancelled * 2 > len(heap):
            heap[:] = [
                (event.time, event.priority, event.seq, event)
                for entry in heap
                if not (event := entry[3]).cancelled
            ]
            heapq.heapify(heap)
            self._cancelled = 0
