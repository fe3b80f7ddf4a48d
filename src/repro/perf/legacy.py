"""Seed-faithful reference implementations of the simulation core.

The hot-path overhaul (table-driven frame encoding, tuple-based event
queue, inlined kernel loop) must change *no simulated outcome*. This module
retains the original, slower core exactly as the seed shipped it:

* :class:`LegacyEventQueue` — the ``order=True`` dataclass heap entries
  whose generated ``__lt__`` rebuilds comparison tuples on every sift.
* :func:`_legacy_start_next` / :func:`_legacy_complete` /
  :func:`_legacy_deliver_all` — the bus completion path exactly as it was
  before the overhaul: the stuffed frame length is computed **twice** per
  transmission (once for the duration, once for accounting) and every
  trace record is emitted without the ``wants()`` pre-check.
* :func:`legacy_core` — a context manager that builds every new
  :class:`~repro.sim.kernel.Simulator` on the legacy queue, forces the
  bit-list reference encoder (no wire-length cache) and swaps the bus
  completion path for the pre-overhaul bodies.

The golden-trace equivalence tests run whole scenarios under
``legacy_core()`` and assert byte-identical traces against the fast core.
"""

from __future__ import annotations

import heapq
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.can import bus as _bus
from repro.can.bitstream import (
    ERROR_FRAME_BITS,
    INTERFRAME_BITS,
    SUSPEND_TRANSMISSION_BITS,
    reference_encoding,
)
from repro.can.controller import ControllerState
from repro.can.errormodel import FaultKind
from repro.sim import kernel as _kernel
from repro.util.sets import WIDE_MAX_CAPACITY, NodeSet

#: Compact the heap only past this size (mirrors the seed constant).
_PURGE_MIN_HEAP = 64


@dataclass(order=True)
class LegacyEvent:
    """The seed's heap entry: an order-generated dataclass."""

    time: int
    priority: int
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    _queue: Optional["LegacyEventQueue"] = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        """Mark the event so the simulator skips it."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()
            self._queue = None


class LegacyEventQueue:
    """The seed's binary-heap queue of :class:`LegacyEvent` objects.

    ``TUPLE_ENTRIES`` is False, so the kernel drives it through the generic
    ``peek_time``/``pop`` path instead of the inlined tuple loop — exactly
    the dispatch cost the seed paid.
    """

    TUPLE_ENTRIES = False

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def __bool__(self) -> bool:
        return len(self._heap) > self._cancelled

    def push(
        self,
        time: int,
        action: Callable[[], None],
        priority: int = 0,
    ) -> LegacyEvent:
        event = LegacyEvent(
            time=time,
            priority=priority,
            seq=next(self._counter),
            action=action,
        )
        event._queue = self
        heapq.heappush(self._heap, event)
        return event

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            len(self._heap) > _PURGE_MIN_HEAP
            and self._cancelled * 2 > len(self._heap)
        ):
            self._heap = [e for e in self._heap if not e.cancelled]
            heapq.heapify(self._heap)
            self._cancelled = 0

    def pop(self) -> Optional[LegacyEvent]:
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            event._queue = None
            return event
        return None

    def peek_time(self) -> Optional[int]:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
            self._cancelled -= 1
        if not self._heap:
            return None
        return self._heap[0].time

    def clear(self) -> None:
        for event in self._heap:
            event.cancelled = True
            event._queue = None
        self._heap.clear()
        self._cancelled = 0


# -- pre-overhaul bus completion path ---------------------------------------
#
# Verbatim transcriptions of CanBus._start_next/_complete/_deliver_all/
# _resolve_fault as they stood before the hot-path overhaul, modulo the
# metric attribute names the observability layer introduced. The load-
# bearing differences: the stuffed frame length is computed twice per
# transmission (`wire_bits` in _start_next for the duration and again in
# _complete for accounting) and trace records are emitted without the
# `wants()` pre-check. Behaviour is identical; only the cost differs.


def _legacy_start_next(self) -> None:
    offers = [
        request
        for controller in self._controllers.values()
        if (request := controller.head_request()) is not None
    ]
    if not offers:
        return
    offers.sort(key=lambda r: r.priority_key)
    winner = offers[0]

    requests = [winner]
    for other in offers[1:]:
        if other is winner:
            continue
        same_id = other.frame.identifier == winner.frame.identifier
        if not same_id:
            continue
        if other.frame == winner.frame:
            if self.clustering:
                requests.append(other)
            continue
        if not other.frame.remote and not winner.frame.remote:
            raise _bus.BusError(
                f"two different data frames contend with identifier "
                f"{winner.frame.identifier:#x}: {winner.frame!r} vs "
                f"{other.frame!r}"
            )

    senders = []
    for request in requests:
        owner = self._owner_of(request)
        owner.take(request)
        senders.append(owner)

    self._busy = True
    self._current = _bus._Transmission(
        frame=winner.frame,
        senders=senders,
        requests=requests,
        started_at=self._sim.now,
    )
    self.stats.clustered_requests += len(requests) - 1
    if len(requests) > 1:
        self._m_clustered_inc(len(requests) - 1)
    duration = self.timing.bits_to_ticks(
        winner.frame.wire_bits(with_interframe=False)
    )
    self._sim.schedule(duration, self._complete)


def _legacy_complete(self) -> None:
    tx = self._current
    assert tx is not None
    self._current = None
    self._tx_index += 1
    self.stats.physical_frames += 1
    self._m_frames_inc()

    alive = self.alive_controllers()
    sender_ids = [c.node_id for c in tx.senders]
    receiver_ids = [c.node_id for c in alive]
    verdict = self.injector.verdict(
        tx.frame, sender_ids, receiver_ids, self._tx_index - 1
    )

    # The pre-overhaul second encode of the frame already timed on the wire.
    frame_bits = tx.frame.wire_bits(with_interframe=False)
    overhead_bits = INTERFRAME_BITS
    type_name = tx.frame.mid.mtype.name

    if verdict.kind is FaultKind.NONE:
        self._deliver_all(tx, alive)
    else:
        self.stats.error_frames += 1
        self._m_errors_inc()
        overhead_bits += ERROR_FRAME_BITS
        if any(
            s.state is ControllerState.ERROR_PASSIVE and s.alive
            for s in tx.senders
        ):
            overhead_bits += SUSPEND_TRANSMISSION_BITS
        self._resolve_fault(tx, alive, verdict)

    self.stats.charge(type_name, frame_bits + overhead_bits)
    self._m_busy_bits_inc(frame_bits + overhead_bits)
    self._m_utilization_set(self.utilization())
    self._sim.trace.record(
        self._sim.now,
        "bus.tx",
        node=sender_ids[0] if sender_ids else -1,
        mid=tx.frame.mid,
        remote=tx.frame.remote,
        senders=tuple(sender_ids),
        bits=frame_bits + overhead_bits,
        kind=verdict.kind.value,
        attempt=tx.requests[0].attempts,
    )

    self._sim.schedule(
        self.timing.bits_to_ticks(overhead_bits), self._go_idle
    )


def _legacy_deliver_all(self, tx, alive) -> None:
    for sender, request in zip(tx.senders, tx.requests):
        if sender.alive:
            sender.finish_success(request)
    took = []
    for controller in alive:
        if controller.alive:
            controller.deliver(tx.frame)
            took.append(controller.node_id)
    if took:
        self._sim.trace.record(
            self._sim.now,
            "bus.deliver",
            mid=tx.frame.mid,
            remote=tx.frame.remote,
            receivers=NodeSet(took, WIDE_MAX_CAPACITY),
        )


@contextmanager
def legacy_core() -> Iterator[None]:
    """Run with the seed-faithful core: legacy queue, encoder and bus path.

    Simulators constructed inside the block use :class:`LegacyEventQueue`,
    every wire length comes from the bit-list reference path with the memo
    cache bypassed, and the bus completion path reverts to the
    pre-overhaul bodies (double encode per transmission, unguarded trace
    records).
    """
    original_queue = _kernel.EventQueue
    original_start_next = _bus.CanBus._start_next
    original_complete = _bus.CanBus._complete
    original_deliver_all = _bus.CanBus._deliver_all
    _kernel.EventQueue = LegacyEventQueue  # type: ignore[assignment]
    _bus.CanBus._start_next = _legacy_start_next
    _bus.CanBus._complete = _legacy_complete
    _bus.CanBus._deliver_all = _legacy_deliver_all
    try:
        with reference_encoding():
            yield
    finally:
        _kernel.EventQueue = original_queue
        _bus.CanBus._start_next = original_start_next
        _bus.CanBus._complete = original_complete
        _bus.CanBus._deliver_all = original_deliver_all
