"""The CAN controller model.

Each node attaches to the bus through a :class:`CanController` that owns a
priority-ordered transmit queue, the standard transmit/receive error
counters (TEC/REC) and the fault-confinement state machine
(error-active -> error-passive -> bus-off). Bus-off enforces the
weak-fail-silent assumption of the system model: a controller that exceeds
its omission degree stops participating.

Frames that lose arbitration or are destroyed by errors are automatically
scheduled for retransmission (ISO 11898), unless aborted or the node crashed.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from heapq import heappush
from typing import Callable, List, Optional

from repro.can.frame import CanFrame
from repro.can.identifiers import MessageId
from repro.errors import BusError
from repro.obs.spans import NULL_TRACER

#: TEC/REC threshold above which the controller goes error-passive.
ERROR_PASSIVE_THRESHOLD = 127
#: TEC threshold above which the controller goes bus-off.
BUS_OFF_THRESHOLD = 255
#: TEC increment on a transmit error (ISO 11898 rule 3).
TX_ERROR_INCREMENT = 8
#: REC increment on a receive error (ISO 11898 rule 1).
RX_ERROR_INCREMENT = 1


class ControllerState(enum.Enum):
    """Fault-confinement states of a CAN controller."""

    ERROR_ACTIVE = "error-active"
    ERROR_PASSIVE = "error-passive"
    BUS_OFF = "bus-off"


@dataclass
class TxRequest:
    """A queued transmission request.

    Attributes:
        frame: the frame to transmit.
        seq: submission order, the FIFO tie-breaker within one priority.
        attempts: physical transmission attempts made so far.
    """

    frame: CanFrame
    seq: int
    attempts: int = 0
    #: Causal span opened at submission, closed when the request leaves the
    #: controller for good (delivered / aborted / dropped). ``None`` while
    #: span tracing is disabled.
    span_id: Optional[int] = None

    def __post_init__(self) -> None:
        # Arbitration order: identifier, then data-before-remote, then
        # FIFO. Precomputed — the key is immutable and every arbitration
        # round sorts on it.
        self.priority_key = (
            self.frame.identifier,
            1 if self.frame.remote else 0,
            self.seq,
        )


class CanController:
    """One node's attachment to the CAN bus."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.tec = 0
        self.rec = 0
        self.crashed = False
        self._queue: List[TxRequest] = []
        self._seq = itertools.count()
        self._bus = None  # set by CanBus.attach
        #: The bus's ready-heap entry standing for the queue head,
        #: ``(priority_key, node_id, request, self)``; ``None`` while the
        #: queue is empty or the controller is detached. Any other entry of
        #: this controller still in the heap is stale.
        self._offer: Optional[tuple] = None
        self._spans = NULL_TRACER  # rebound to the sim's tracer by attach
        #: Hardware acceptance filters; ``None`` means accept-all (the
        #: seed behaviour, and the only correct configuration for a full
        #: CANELy node — see :mod:`repro.can.filters`). Install via
        #: :meth:`set_filters` so the bus drops its delivery tables.
        self._filters = None
        # Delivery hooks, wired by the standard-layer driver.
        self._on_rx: Optional[Callable[[CanFrame], None]] = None
        self.on_tx_success: Optional[Callable[[CanFrame], None]] = None

    # -- state ---------------------------------------------------------------

    @property
    def on_rx(self) -> Optional[Callable[[CanFrame], None]]:
        """The receive upcall. The bus bakes what it resolves to into its
        delivery plans, so rebinding it drops them."""
        return self._on_rx

    @on_rx.setter
    def on_rx(self, handler: Optional[Callable[[CanFrame], None]]) -> None:
        self._on_rx = handler
        if self._bus is not None:
            self._bus.invalidate_delivery_tables()

    def _needs_attention(self) -> None:
        # Going down or picking up a receive error: the bus's planned
        # delivery no longer visits every controller per frame, so it keeps
        # a register of the ones it has to look at. Coming back up (a
        # recovery clearing ``crashed``/``tec``/``rec``) needs no call —
        # the register is a superset, pruned when the bus next looks.
        bus = self._bus
        if bus is not None:
            bus._unfit[self.node_id] = self
            bus._unfit_marks += 1

    @property
    def state(self) -> ControllerState:
        """Current fault-confinement state."""
        if self.tec > BUS_OFF_THRESHOLD:
            return ControllerState.BUS_OFF
        if self.tec > ERROR_PASSIVE_THRESHOLD or self.rec > ERROR_PASSIVE_THRESHOLD:
            return ControllerState.ERROR_PASSIVE
        return ControllerState.ERROR_ACTIVE

    @property
    def alive(self) -> bool:
        """True while the node participates in bus traffic.

        Checked several times per frame by the bus; reads the bus-off
        condition (``tec > BUS_OFF_THRESHOLD``) directly instead of
        chaining through the :attr:`state` property.
        """
        return not self.crashed and self.tec <= BUS_OFF_THRESHOLD

    # -- acceptance filtering ---------------------------------------------------

    @property
    def filters(self):
        """The installed :class:`~repro.can.filters.FilterBank`, or ``None``."""
        return self._filters

    def set_filters(self, bank) -> None:
        """Install (or clear, with ``None``/empty) acceptance filters.

        Mutating a bank after installation must go through this method
        again: the bus caches per-identifier delivery tables keyed on the
        installed filter configuration and invalidates them here.
        """
        self._filters = bank if bank is not None and len(bank) else None
        if self._bus is not None:
            self._bus.invalidate_delivery_tables()

    def accepts(self, identifier: int) -> bool:
        """True when this controller's receiver passes ``identifier`` up."""
        bank = self._filters
        return bank is None or bank.accepts(identifier)

    def crash(self) -> None:
        """Fail silent: stop transmitting and receiving, drop the queue.

        Crashing between a failed transmission attempt and its automatic
        retransmission is how the paper's *inconsistent message omission*
        scenario arises.
        """
        self.crashed = True
        self._needs_attention()
        if self._spans.enabled:
            for request in self._queue:
                self._spans.end(request.span_id, outcome="crashed")
        self._queue.clear()
        self._offer = None

    # -- transmit queue --------------------------------------------------------

    def submit(self, frame: CanFrame) -> Optional[TxRequest]:
        """Queue ``frame`` for transmission; returns the request handle.

        Submissions from a crashed or bus-off controller are silently
        discarded (fail-silent behaviour) and return ``None``.
        """
        if not self.alive:
            return None
        request = TxRequest(frame=frame, seq=next(self._seq))
        if self._spans.enabled:
            request.span_id = self._spans.begin(
                "can.frame",
                "can",
                node=self.node_id,
                mid=str(frame.mid),
                remote=frame.remote,
            )
        self._queue.append(request)
        if len(self._queue) > 1:
            self._queue.sort(key=lambda r: r.priority_key)
        bus = self._bus
        if bus is not None:
            self._offer_head()
            bus.kick()
        return request

    def abort(self, mid: MessageId) -> bool:
        """Abort pending requests carrying ``mid`` (``can-abort.req``).

        Per the standard-layer semantics, only *pending* requests are
        affected: a frame already on the wire completes its attempt. Returns
        True when at least one request was removed.
        """
        before = len(self._queue)
        if self._spans.enabled:
            for request in self._queue:
                if request.frame.mid == mid:
                    self._spans.end(request.span_id, outcome="aborted")
        self._queue = [r for r in self._queue if r.frame.mid != mid]
        if len(self._queue) == before:
            return False
        self._offer_head()
        return True

    def has_pending(self, mid: MessageId) -> bool:
        """True while a request for ``mid`` is queued."""
        return any(r.frame.mid == mid for r in self._queue)

    @property
    def queue_depth(self) -> int:
        """Number of pending transmit requests."""
        return len(self._queue)

    # -- bus-facing interface ----------------------------------------------------

    def head_request(self) -> Optional[TxRequest]:
        """The request this controller offers to arbitration: the
        highest-priority pending one, or None when the queue is empty or
        the controller is down."""
        if not self._queue or not self.alive:
            return None
        return self._queue[0]

    def _offer_head(self) -> None:
        # The queue changed. If its head did too, the new head gets a fresh
        # entry in the bus's ready heap; the entry it replaces stays behind,
        # stale, and the bus drops it when it pops it.
        queue = self._queue
        bus = self._bus
        if not queue or bus is None:
            self._offer = None
            return
        head = queue[0]
        offer = self._offer
        if offer is None or offer[2] is not head:
            self._offer = offer = (head.priority_key, self.node_id, head, self)
            heappush(bus._ready, offer)

    def take(self, request: TxRequest) -> None:
        """Remove ``request`` from the queue: it is now in flight."""
        try:
            self._queue.remove(request)
        except ValueError:
            raise BusError(
                f"node {self.node_id}: request not pending: {request.frame!r}"
            ) from None
        self._offer_head()

    def finish_success(self, request: TxRequest) -> None:
        """Successful transmission: TEC decrement and ``.cnf`` upcall."""
        if self.tec:
            self.tec -= 1
        if request.span_id is not None:
            self._spans.end(
                request.span_id, outcome="delivered", attempts=request.attempts
            )
        if self.on_tx_success is not None:
            self.on_tx_success(request.frame)

    def finish_error(self, request: TxRequest) -> None:
        """Failed transmission: bump TEC and requeue for automatic retry."""
        self.tec += TX_ERROR_INCREMENT
        if request.span_id is not None:
            self._spans.event(request.span_id, "tx-error")
        if not self.alive:
            self._needs_attention()
            if request.span_id is not None:
                self._spans.end(
                    request.span_id, outcome="dropped", attempts=request.attempts
                )
            return
        request.attempts += 1
        self._queue.append(request)
        if len(self._queue) > 1:
            self._queue.sort(key=lambda r: r.priority_key)
        self._offer_head()

    def deliver(self, frame: CanFrame) -> None:
        """A frame was accepted by this controller's receiver."""
        if self.rec:
            self.rec -= 1
        if self._on_rx is not None:
            self._on_rx(frame)

    def rx_error(self) -> None:
        """This controller detected an error in a received frame."""
        self.rec += RX_ERROR_INCREMENT
        self._needs_attention()
