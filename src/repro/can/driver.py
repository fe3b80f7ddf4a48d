"""The CAN standard layer (paper Fig. 4).

Wraps a :class:`CanController` with the primitive interface the CANELy
micro-protocols are written against:

==================  ==========================================================
primitive           semantics
==================  ==========================================================
``can-data.req``    queue a data frame (only one node may transmit a given
                    data frame at a time)
``can-rtr.req``     queue a remote frame (several nodes may transmit the same
                    remote frame simultaneously — wired-AND clustering)
``can-data.cnf`` /  successful transmission of own frame
``can-rtr.cnf``
``can-data.ind`` /  arrival of a data/remote frame, own transmissions included
``can-rtr.ind``
``can-data.nty``    **extension to the standard**: arrival of a data frame,
                    own transmissions included, *without* delivering the data
                    — the hook that lets normal traffic double as life-signs
``can-abort.req``   abort pending (not in-flight) transmit requests
==================  ==========================================================

An indication listener whose effect is normally the same at every receiver
of a frame — the failure detector's "the sender is alive", SWIM's heartbeat
from a member everybody holds alive — may register a *collective form*
beside it, equal by contract to the per-receiver upcalls:
``collective(mid, listeners)`` to ``for listener in listeners: listener(mid)``
(``can-data.nty``, ``can-rtr.ind``), ``collective(mid, data, listeners)`` to
``for listener in listeners: listener(mid, data)`` (``can-data.ind``). Layers
that name the same collective object are then served by one call per frame
from the bus's delivery plan, with the tuple of their listeners in delivery
order, and a node with nothing else to hear costs that frame no visit at
all. Every per-receiver delivery path keeps calling the listener itself.

Per node the upcall order stands: a listener is collected only when all its
node upcalls before it was collected too (``.nty`` before ``.ind``,
registration order). Across nodes the plan calls the nty/rtr-ind forms first
and a data-ind form at its first member's turn — ahead of its later members',
which a form must not be able to tell: it may take no controller down.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.can.controller import CanController
from repro.can.frame import CanFrame, data_frame, remote_frame
from repro.can.identifiers import MessageId, MessageType

DataIndListener = Callable[[MessageId, bytes], None]
RtrIndListener = Callable[[MessageId], None]
CnfListener = Callable[[MessageId], None]
NtyListener = Callable[[MessageId], None]
#: ``collective(mid, listeners)`` — ``collective(mid, data, listeners)`` for
#: ``can-data.ind`` — the listeners' effect, all at once.
CollectiveListener = Callable[..., None]


class CanStandardLayer:
    """Per-node standard layer: primitives + listener dispatch."""

    def __init__(self, controller: CanController) -> None:
        self._controller = controller
        # Listener tables are immutable tuples rebuilt on subscription:
        # iterating a tuple needs no defensive copy (a listener registered
        # mid-dispatch takes effect from the next frame). The indication
        # tables hold ``(mtype, listener, collective form)``, ``None`` for
        # any type (``.nty`` taps every data frame) and for no form.
        self._data_ind: Tuple[tuple, ...] = ()
        self._rtr_ind: Tuple[tuple, ...] = ()
        self._data_nty: Tuple[tuple, ...] = ()
        self._data_cnf: Tuple[Tuple[Optional[MessageType], CnfListener], ...] = ()
        self._rtr_cnf: Tuple[Tuple[Optional[MessageType], CnfListener], ...] = ()
        # Confirmation dispatch runs once per frame: the eligible listeners
        # are resolved once per (table, type). Registration invalidates; the
        # filtered tuples preserve registration order.
        self._data_cnf_cache: dict = {}
        self._rtr_cnf_cache: dict = {}
        # Remote frames are immutable value objects fully determined by
        # their mid, and the CANELy control messages (ELS, failure signs,
        # membership signs) are re-requested every cycle — memoizing them
        # skips a frame construction (and its encode) per request.
        # Bounded: application refs roll, so the mid space is unbounded.
        self._rtr_frames: dict = {}
        # Rebinding ``on_rx`` drops the bus's delivery plans.
        controller.on_rx = self._handle_rx
        controller.on_tx_success = self._handle_cnf

    @property
    def node_id(self) -> int:
        """Identifier of the node this layer serves."""
        return self._controller.node_id

    @property
    def controller(self) -> CanController:
        """The underlying CAN controller."""
        return self._controller

    # -- request primitives -----------------------------------------------------

    def data_req(self, mid: MessageId, data: bytes = b"") -> None:
        """``can-data.req``: queue a data frame for transmission."""
        self._controller.submit(data_frame(mid, data))

    def rtr_req(self, mid: MessageId) -> None:
        """``can-rtr.req``: queue a remote frame for transmission."""
        frame = self._rtr_frames.get(mid)
        if frame is None:
            if len(self._rtr_frames) >= 256:
                self._rtr_frames.clear()
            frame = self._rtr_frames[mid] = remote_frame(mid)
        self._controller.submit(frame)

    def abort_req(self, mid: MessageId) -> bool:
        """``can-abort.req``: drop pending requests for ``mid``."""
        return self._controller.abort(mid)

    def has_pending(self, mid: MessageId) -> bool:
        """True while a transmit request for ``mid`` is queued locally."""
        return self._controller.has_pending(mid)

    # -- listener registration -----------------------------------------------------

    def _invalidate_delivery_plans(self) -> None:
        # The bus's fused delivery plans bake this layer's resolved
        # indication tuples; any registration that changes what a
        # delivery must upcall has to drop them.
        bus = self._controller._bus
        if bus is not None:
            bus.invalidate_delivery_tables()

    def add_data_ind(
        self,
        listener: DataIndListener,
        mtype: Optional[MessageType] = None,
        collective: Optional[CollectiveListener] = None,
    ) -> None:
        """Subscribe to ``can-data.ind`` (optionally one message type only);
        ``collective`` names the listener's collective form (module
        docstring)."""
        self._data_ind += ((mtype, listener, collective),)
        self._invalidate_delivery_plans()

    def add_rtr_ind(
        self,
        listener: RtrIndListener,
        mtype: Optional[MessageType] = None,
        collective: Optional[CollectiveListener] = None,
    ) -> None:
        """Subscribe to ``can-rtr.ind``; ``collective`` names the
        listener's collective form (module docstring)."""
        self._rtr_ind += ((mtype, listener, collective),)
        self._invalidate_delivery_plans()

    def add_data_cnf(
        self, listener: CnfListener, mtype: Optional[MessageType] = None
    ) -> None:
        """Subscribe to ``can-data.cnf``."""
        self._data_cnf += ((mtype, listener),)
        self._data_cnf_cache.clear()

    def add_rtr_cnf(
        self, listener: CnfListener, mtype: Optional[MessageType] = None
    ) -> None:
        """Subscribe to ``can-rtr.cnf``."""
        self._rtr_cnf += ((mtype, listener),)
        self._rtr_cnf_cache.clear()

    def add_data_nty(
        self,
        listener: NtyListener,
        collective: Optional[CollectiveListener] = None,
    ) -> None:
        """Subscribe to the ``can-data.nty`` extension (all data frames);
        ``collective`` names the listener's collective form."""
        self._data_nty += ((None, listener, collective),)
        self._invalidate_delivery_plans()

    # -- controller upcalls -----------------------------------------------------

    @staticmethod
    def _resolve(table: tuple, cache: dict, mtype: MessageType) -> tuple:
        """Fill ``cache[mtype]`` with ``table``'s eligible listeners."""
        eligible = cache[mtype] = tuple(
            listener
            for registered, listener in table
            if registered is None or registered is mtype
        )
        return eligible

    def _plan_delivery(
        self, remote: bool, mtype: MessageType
    ) -> Tuple[tuple, tuple, tuple, tuple]:
        """What :meth:`_handle_rx` upcalls for one kind of frame, split for
        the bus's delivery plan: ``(collected, collected_ind, first, second)``.

        The upcalls in order are nty or rtr-ind, then data-ind. The leading
        ones that name a collective form are collected, as ``(listener,
        collective)`` pairs — data-ind ones apart, they take the data; from
        the first listener without one on, per-node order is kept: ``first``
        then ``second`` (data-ind) are left to upcall per node.
        """
        if remote:
            tables = ((self._rtr_ind, False),)
        else:
            tables = ((self._data_nty, False), (self._data_ind, True))
        collected, collected_ind, first, second = [], [], [], []
        leading = True
        for table, takes_data in tables:
            for registered, listener, collective in table:
                if registered is not None and registered is not mtype:
                    continue
                leading = leading and collective is not None
                if leading:
                    pair = (listener, collective)
                    (collected_ind if takes_data else collected).append(pair)
                else:
                    (second if takes_data else first).append(listener)
        return tuple(collected), tuple(collected_ind), tuple(first), tuple(second)

    def _handle_rx(self, frame: CanFrame) -> None:
        # The per-receiver path (fault resolution, facades, the broadcast
        # reference): the bus's delivery plans bake these upcalls instead.
        mid = frame.mid
        mtype = mid.mtype
        if frame.remote:
            for registered, listener, _ in self._rtr_ind:
                if registered is None or registered is mtype:
                    listener(mid)
            return
        # The .nty extension fires before .ind: it carries no data and is
        # what the failure-detection protocol taps for implicit life-signs.
        for _, listener, _ in self._data_nty:
            listener(mid)
        for registered, listener, _ in self._data_ind:
            if registered is None or registered is mtype:
                listener(mid, frame.data)

    def _handle_cnf(self, frame: CanFrame) -> None:
        mid = frame.mid
        if frame.remote:
            listeners = self._rtr_cnf_cache.get(mid.mtype)
            if listeners is None:
                listeners = self._resolve(
                    self._rtr_cnf, self._rtr_cnf_cache, mid.mtype
                )
        else:
            listeners = self._data_cnf_cache.get(mid.mtype)
            if listeners is None:
                listeners = self._resolve(
                    self._data_cnf, self._data_cnf_cache, mid.mtype
                )
        for listener in listeners:
            listener(mid)
