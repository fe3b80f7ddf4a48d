"""The CAN bus: arbitration, clustering, transmission and fault resolution.

The bus is a single broadcast channel. Whenever it goes idle, every attached
controller offers its highest-priority pending request; the frame with the
lowest identifier wins (carrier sense multi-access with deterministic
collision resolution). The offers wait in a ready heap the controllers keep
up to date, so an arbitration pops its winner instead of polling every
queue. Requests for *bit-identical* frames — in particular
identical remote frames, the CANELy control-message encapsulation — are
transmitted as **one** physical frame thanks to the wired-AND nature of the
medium; every co-sender sees its own request confirmed. This clustering is
what lets the FDA and membership protocols pay one frame for n logical
transmissions.

The fault injector decides the outcome of every physical transmission:
error-free, consistent omission (globalized error frame, automatic
retransmission) or inconsistent omission (a subset of recipients accepts
the frame; everyone else sees the error and the senders retransmit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Collection, Dict, List, Optional

from repro.can.bitstream import (
    ERROR_FRAME_BITS,
    INTERFRAME_BITS,
    SUSPEND_TRANSMISSION_BITS,
)
from repro.can.controller import (
    BUS_OFF_THRESHOLD,
    CanController,
    ControllerState,
    TxRequest,
)
from repro.can.errormodel import (
    OK_VERDICT,
    FaultInjector,
    FaultKind,
    FaultVerdict,
)
from repro.can.frame import CanFrame
from repro.can.phy import BitTiming
from repro.errors import BusError
from repro.sim.kernel import Simulator
from repro.util.sets import WIDE_MAX_CAPACITY, NodeSet

#: On a bus where some controller filters, delivery plans are kept per
#: identifier and dropped wholesale past this many (application refs roll,
#: so the identifier space is not bounded by the node count).
_ACCEPT_TABLE_LIMIT = 4096

#: Likewise the per-plan views "this plan minus those down controllers".
_PLAN_VIEW_LIMIT = 64


@dataclass
class BusStats:
    """Aggregate bus accounting, all in bit-times.

    ``busy_bits`` counts every bit-time the bus was not idle (frames,
    interframe spaces, error frames, suspend penalties); ``bits_by_type``
    attributes frame + overhead bits to the message type that caused them,
    which is what the Fig. 10 bandwidth benchmark reads out.
    ``inaccessibility_bits`` counts injected inaccessibility periods —
    windows where the network refrains from providing service while
    remaining operational ([22]).
    """

    physical_frames: int = 0
    clustered_requests: int = 0
    error_frames: int = 0
    busy_bits: int = 0
    inaccessibility_bits: int = 0
    bus_off_recoveries: int = 0
    bits_by_type: Dict[str, int] = field(default_factory=dict)

    def charge(self, type_name: str, bits: int) -> None:
        self.busy_bits += bits
        self.bits_by_type[type_name] = self.bits_by_type.get(type_name, 0) + bits


@dataclass
class _Transmission:
    frame: CanFrame
    senders: List[CanController]
    requests: List[TxRequest]
    started_at: int
    #: Exact stuffed frame length (no interframe), computed once when
    #: arbitration resolves and reused by the completion path — each
    #: physical frame is encoded at most once.
    wire_bits: int = 0
    #: Causal span covering the wire occupancy of this physical frame
    #: (``None`` while span tracing is disabled).
    span_id: Optional[int] = None


class _DeliveryPlan:
    """Who takes one kind of frame, and what each delivery has to call.

    Built once per kind (:meth:`CanBus._build_plan`), valid until the next
    :meth:`CanBus.invalidate_delivery_tables`. Aliveness is *not* baked in:
    ``views`` caches, per set of planned controllers left out (down, or
    skipped by an inconsistent omission), what the plan reduces to without
    them.
    """

    __slots__ = ("controllers", "slot", "entries", "visited", "collectives", "views")

    def __init__(self, controllers, entries, collectives) -> None:
        #: Every accepting controller, in attach order — the delivery order.
        self.controllers = controllers
        #: node id -> position in ``controllers``.
        self.slot = {c.node_id: i for i, c in enumerate(controllers)}
        #: ``(controller, first, second)`` for the controllers a delivery
        #: must visit one by one: ``first``/``second`` are the baked
        #: listener tuples of a standard layer (nty or rtr-ind, then
        #: data-ind), ``first is None`` means ``controller.deliver``.
        #: ``(None, None, None)`` stands at the turn of the first controller
        #: with a collected listener: the collective forms are called there.
        self.entries = entries
        self.visited = frozenset(
            entry[0].node_id for entry in entries if entry[0] is not None
        )
        #: ``(collective, takes_data, ((node id, listener), ...))`` per
        #: collective form the planned layers registered, nty/rtr-ind ones
        #: first, members in delivery order.
        self.collectives = collectives
        #: left-out node ids -> :meth:`view`, cached.
        self.views: Dict[tuple, tuple] = {}

    def view(self, out: tuple) -> tuple:
        """``(calls, receivers)`` with the controllers in ``out`` left out:
        the collective calls ``((collective, takes_data, listeners), ...)``
        to make, forms with no listener left dropped, and the set of
        controllers taking the frame."""
        found = self.views.get(out)
        if found is None:
            calls = []
            for collective, takes_data, members in self.collectives:
                listeners = tuple(l for node_id, l in members if node_id not in out)
                if listeners:
                    calls.append((collective, takes_data, listeners))
            receivers = NodeSet(
                (c.node_id for c in self.controllers if c.node_id not in out),
                WIDE_MAX_CAPACITY,
            )
            if len(self.views) >= _PLAN_VIEW_LIMIT:
                self.views.clear()
            found = self.views[out] = (tuple(calls), receivers)
        return found


class CanBus:
    """A single-channel CAN broadcast bus."""

    def __init__(
        self,
        sim: Simulator,
        timing: Optional[BitTiming] = None,
        injector: Optional[FaultInjector] = None,
        clustering: bool = True,
        bus_off_recovery: bool = False,
    ) -> None:
        self._sim = sim
        self.timing = timing if timing is not None else BitTiming()
        self.injector = injector if injector is not None else FaultInjector()
        self.clustering = clustering
        #: When True, a controller reaching bus-off rejoins after the ISO
        #: 11898 recovery sequence (128 x 11 recessive bits) instead of
        #: staying silent. Off by default: permanent bus-off is what
        #: enforces the system model's weak-fail-silent assumption.
        self.bus_off_recovery = bus_off_recovery
        self._controllers: Dict[int, CanController] = {}
        #: kind of frame -> :class:`_DeliveryPlan`. Data and remote frames
        #: plan separately — the RTR bit selects a different upcall. While
        #: no attached controller filters, who accepts a frame and what
        #: they upcall depends on the message type only, so that is the
        #: key; a bus with a filter bank anywhere keys by identifier.
        #: Attach, filter changes, listener registration and a rebound
        #: ``on_rx`` drop the plans (:meth:`invalidate_delivery_tables`);
        #: crashes and bus-off do not.
        self._plan_data: Dict[int, _DeliveryPlan] = {}
        self._plan_rtr: Dict[int, _DeliveryPlan] = {}
        #: Does any attached controller filter? ``None``: not looked yet
        #: since the plans were last dropped.
        self._filtering: Optional[bool] = None
        #: node id -> controller, for controllers that *may* be down
        #: (crashed, bus-off) or hold a non-zero REC — the ones a planned
        #: delivery cannot take for granted. A conservative superset:
        #: controllers enter themselves when they crash, go bus-off or
        #: count a receive error, and the next delivery prunes the ones
        #: found fit again, so nothing has to report coming back up.
        #: ``_unfit_marks`` counts the entries, so a delivery notices one
        #: made by its own upcalls.
        self._unfit: Dict[int, CanController] = {}
        self._unfit_marks = 0
        #: The ready heap: ``(priority_key, node_id, request, controller)``
        #: per queue head, pushed by the controller whenever its head
        #: changes (``CanController._offer_head``). An entry that is no
        #: longer its controller's ``_offer`` is stale and dropped when
        #: popped. ``priority_key`` then node id is a total order, so the
        #: heap never compares requests.
        self._ready: List[tuple] = []
        #: node id -> controller, for controllers whose offer was popped
        #: while they were down with requests still queued. Every
        #: arbitration looks at them again: one back up offers again.
        self._dormant: Dict[int, CanController] = {}
        self._busy = False
        self._arbitration_pending = False
        self._inaccessible_until = 0
        self._current: Optional[_Transmission] = None
        self._tx_index = 0
        self.stats = BusStats()
        self._trace = sim.trace
        #: The causal span tracer, aliased once; every span site below
        #: guards on ``self._spans.enabled``.
        self._spans = sim.spans
        # Bound metric methods resolved once: the completion path runs per
        # frame, and ``registry.counter(...)`` plus attribute dispatch per
        # frame is measurable at campaign scale.
        metrics = sim.metrics
        self._m_frames_inc = metrics.counter("bus.frames").inc
        self._m_errors_inc = metrics.counter("bus.error_frames").inc
        self._m_clustered_inc = metrics.counter("bus.clustered_requests").inc
        self._m_busy_bits_inc = metrics.counter("bus.busy_bits").inc
        self._m_utilization_set = metrics.gauge("bus.utilization").set

    # -- topology -----------------------------------------------------------

    def attach(self, controller: CanController) -> None:
        """Connect ``controller`` to the bus."""
        if controller.node_id in self._controllers:
            raise BusError(f"node id {controller.node_id} already attached")
        self._controllers[controller.node_id] = controller
        controller._bus = self
        controller._spans = self._spans
        if not controller.alive or controller.rec:
            controller._needs_attention()
        controller._offer_head()
        self.invalidate_delivery_tables()

    def detach(self, controller: CanController) -> None:
        """Disconnect ``controller`` from the bus.

        The inverse of :meth:`attach`, used by gateways whose ports come
        and go. The cached delivery plans bake the accepting-controller
        set per identifier, so a detach *must* drop them — otherwise a
        stale plan keeps delivering to (or skipping) the departed port.
        """
        attached = self._controllers.get(controller.node_id)
        if attached is not controller:
            raise BusError(
                f"node id {controller.node_id} is not attached to this bus"
            )
        del self._controllers[controller.node_id]
        self._unfit.pop(controller.node_id, None)
        self._dormant.pop(controller.node_id, None)
        # Its entries go now: a later controller under the same node id
        # must not tie with them on ``(priority_key, node_id)``.
        self._ready = [entry for entry in self._ready if entry[3] is not controller]
        heapify(self._ready)
        controller._bus = None
        controller._offer = None
        self.invalidate_delivery_tables()

    def invalidate_delivery_tables(self) -> None:
        """Drop the cached delivery plans.

        Called whenever the accepting set for any frame — or the upcall a
        delivery must make — may have changed: a controller attached or
        left, a filter bank was installed, replaced or cleared, a standard
        layer gained a listener, an ``on_rx`` was rebound. Plans (and the
        choice of their key) rebuild lazily on the next delivery.
        """
        self._plan_data.clear()
        self._plan_rtr.clear()
        self._filtering = None

    def alive_controllers(self) -> List[CanController]:
        """Controllers currently participating in bus traffic."""
        # ``alive`` inlined (one property call per controller per frame
        # adds up at campaign scale).
        return [
            c
            for c in self._controllers.values()
            if not c.crashed and c.tec <= BUS_OFF_THRESHOLD
        ]

    # -- scheduling ------------------------------------------------------------

    def kick(self) -> None:
        """A controller queued a request: start arbitration if idle.

        Arbitration is deferred by a zero-delay event so every request
        submitted at the same instant (e.g. the echo requests an FDA
        delivery triggers at all recipients) contends in the same start-of-
        frame window — which is what lets identical remote frames cluster.
        """
        if self._busy or self._arbitration_pending:
            return
        self._arbitration_pending = True
        self._sim.schedule(0, self._arbitrate)

    def _arbitrate(self) -> None:
        self._arbitration_pending = False
        if self._busy:
            return
        if self._sim.now < self._inaccessible_until:
            # The network is in an inaccessibility window: service resumes
            # when it closes.
            self._arbitration_pending = True
            self._sim.schedule_at(self._inaccessible_until, self._arbitrate)
            return
        taken = self._contend()
        if not taken:
            return
        winner = taken[0][2]
        requests = []
        senders = []
        for _key, _node_id, request, owner in taken:
            owner.take(request)
            requests.append(request)
            senders.append(owner)
        frame_bits = winner.frame.wire_bits(with_interframe=False)
        self._busy = True
        self._current = _Transmission(
            frame=winner.frame,
            senders=senders,
            requests=requests,
            started_at=self._sim.now,
            wire_bits=frame_bits,
        )
        if self._spans.enabled:
            self._current.span_id = self._spans.begin(
                "can.tx",
                "bus",
                node=senders[0].node_id,
                parent=winner.span_id,
                mid=str(winner.frame.mid),
                remote=winner.frame.remote,
                cluster=len(requests),
            )
        self.stats.clustered_requests += len(requests) - 1
        if len(requests) > 1:
            self._m_clustered_inc(len(requests) - 1)
        duration = self.timing.bits_to_ticks(frame_bits)
        self._sim.schedule(duration, self._complete)

    def inject_inaccessibility(self, bits: int) -> None:
        """Open an inaccessibility window of ``bits`` bit-times from now.

        Models the aftermath of error signalling ([22]): the network is
        operational but refrains from starting new transmissions. An
        ongoing transmission completes normally (its fate is governed by
        the fault injector); queued requests wait the window out.
        """
        until = self._sim.now + self.timing.bits_to_ticks(bits)
        if until <= self._inaccessible_until:
            return
        self._inaccessible_until = until
        self.stats.inaccessibility_bits += bits
        self._sim.trace.record(
            self._sim.now, "bus.inaccessible", bits=bits, until=until
        )
        self.kick()

    def _contend(self) -> List[tuple]:
        """One arbitration: pop the winner and the requests that go out with
        it; returns their ready-heap entries, the winner first, or nothing
        when no controller that is up has a request queued.

        The entries of one identifier come off the heap as a run, in
        ``(priority_key, node_id)`` order. Bit-identical frames cluster
        (with ``clustering`` off they go back on the heap), a remote frame
        loses to the data frame with its identifier and goes back, and two
        different data frames with one identifier raise :class:`BusError`.
        With span tracing on, every request still offering afterwards lost
        this round and gets one ``arb-loss`` point event. The scan over all
        controllers this must equal is ``tests/arbitration_reference.py``.
        """
        ready = self._ready
        dormant = self._dormant
        if dormant:
            for node_id, controller in list(dormant.items()):
                if not controller._queue:
                    del dormant[node_id]
                elif not controller.crashed and controller.tec <= BUS_OFF_THRESHOLD:
                    del dormant[node_id]
                    controller._offer = None
                    controller._offer_head()
        while ready:
            entry = heappop(ready)
            owner = entry[3]
            if entry is not owner._offer:
                continue
            if owner.crashed or owner.tec > BUS_OFF_THRESHOLD:
                dormant[entry[1]] = owner
                continue
            break
        else:
            return []
        ident, remote = entry[0][0], entry[0][1]
        data = entry[2].frame.data
        taken = [entry]
        back = []
        while ready and ready[0][0][0] == ident:
            other = heappop(ready)
            owner = other[3]
            if other is not owner._offer:
                continue
            if owner.crashed or owner.tec > BUS_OFF_THRESHOLD:
                dormant[other[1]] = owner
                continue
            if other[0][1] == remote and other[2].frame.data == data:
                # Wired-AND clustering: bit-identical frames transmit as one.
                (taken if self.clustering else back).append(other)
            elif other[0][1]:
                # The data frame's dominant RTR bit wins; the remote frame
                # just loses arbitration.
                back.append(other)
            else:
                for lost in taken + back + [other]:
                    heappush(ready, lost)
                raise BusError(
                    f"two different data frames contend with identifier "
                    f"{ident:#x}: {entry[2].frame!r} vs {other[2].frame!r}"
                )
        for lost in back:
            heappush(ready, lost)
        if self._spans.enabled:
            for lost in ready:
                owner = lost[3]
                if (
                    lost is owner._offer
                    and not owner.crashed
                    and owner.tec <= BUS_OFF_THRESHOLD
                ):
                    self._spans.event(lost[2].span_id, "arb-loss")
        return taken

    # -- completion --------------------------------------------------------------

    def _complete(self) -> None:
        tx = self._current
        assert tx is not None
        self._current = None
        self._tx_index += 1
        self.stats.physical_frames += 1
        self._m_frames_inc()

        sender_ids = [c.node_id for c in tx.senders]
        # The alive list is O(membership) to build; it is built only where
        # it is read: an armed injector and fault resolution (reached only
        # through an armed injector's verdict).
        alive = None
        if self.injector.armed:
            alive = self.alive_controllers()
            verdict = self.injector.verdict(
                tx.frame,
                sender_ids,
                [c.node_id for c in alive],
                self._tx_index - 1,
            )
        else:
            verdict = OK_VERDICT
        if tx.span_id is not None:
            self._spans.end(tx.span_id, kind=verdict.kind.value)

        frame_bits = tx.wire_bits
        overhead_bits = INTERFRAME_BITS
        type_name = tx.frame.mid.mtype.name

        if verdict.kind is FaultKind.NONE:
            for sender, request in zip(tx.senders, tx.requests):
                # ``alive`` inlined, as everywhere on the completion path.
                if not sender.crashed and sender.tec <= BUS_OFF_THRESHOLD:
                    sender.finish_success(request)
            self._deliver(tx)
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
        self._trace.record(
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

        # Bus stays busy through the interframe space / error frame.
        self._sim.schedule(
            self.timing.bits_to_ticks(overhead_bits), self._go_idle
        )

    def _deliver(self, tx: _Transmission, skip: Collection[int] = ()) -> None:
        """Hand ``tx``'s frame to every controller that takes it but the
        node ids in ``skip`` — the one delivery of an error-free frame and
        of an inconsistent omission's accepting subset alike.

        With span tracing on, the frame's one ``can.rx`` span is the context
        of all of it and ends carrying who took the frame. The frame's one
        ``bus.deliver`` row follows: ``receivers`` holds the controllers
        that actually accepted it (gateway ports included, hence the wide
        set) and ``inconsistent`` marks an omission's accepting subset (the
        paper's failure mode in one row: the mask minus the victims). Read
        it back per receiver with :func:`repro.sim.trace.deliveries`.
        """
        frame = tx.frame
        inconsistent = {"inconsistent": True} if skip else {}
        spans = self._spans
        rx_span = None
        if spans.enabled:
            rx_span = spans.begin("can.rx", "bus", parent=tx.span_id, **inconsistent)
            spans.push(rx_span)
        receivers = None
        try:
            receivers = self._deliver_planned(tx, skip)
        finally:
            if rx_span is not None:
                spans.pop()
                # Set at the end: a receiver taken down mid-delivery is out
                # of the span as it is out of the ``bus.deliver`` row.
                spans.end(rx_span, receivers=receivers)
        if receivers:
            payload = {"mid": frame.mid, "remote": frame.remote, "receivers": receivers}
            payload.update(inconsistent)
            self._trace.record_row(self._sim.now, "bus.deliver", -1, payload)

    def _deliver_planned(
        self, tx: _Transmission, skip: Collection[int] = ()
    ) -> NodeSet:
        """Deliver through the frame kind's plan, leaving out the node ids
        in ``skip``; returns who took it.

        The filter match and the upcall resolution were paid once, when
        the plan was built. Per frame, the plan's collective forms are
        called once each, at the turn of the first controller with a
        collected listener (:mod:`repro.can.driver`), and only the planned
        controllers with something else to hear are visited, their baked
        listener tuples upcalled directly (transcribing ``deliver``'s REC
        heal and ``_handle_rx``'s nty-before-ind order without the call
        frames). Controllers that may be down or hold a REC are looked at
        through the ``_unfit`` register, not by scanning the membership.
        Deliveries, REC bookkeeping and the trace are exactly those of the
        broadcast reference the tests keep (``tests/broadcast_reference.py``).
        """
        frame = tx.frame
        mid = frame.mid
        plans = self._plan_rtr if frame.remote else self._plan_data
        filtering = self._filtering
        if filtering is None:
            filtering = self._filtering = any(
                c._filters is not None for c in self._controllers.values()
            )
        key = frame.identifier if filtering else mid.mtype
        plan = plans.get(key)
        if plan is None:
            plan = self._build_plan(frame, plans, key)
        out = self._sift_unfit(plan, skip) if self._unfit else ()
        if skip:
            out += tuple(sorted(skip))
        calls, receivers = plan.view(out)
        data = frame.data
        marks = self._unfit_marks
        for controller, first, second in plan.entries:
            if controller is None:
                for collective, takes_data, listeners in calls:
                    if takes_data:
                        collective(mid, data, listeners)
                    else:
                        collective(mid, listeners)
                continue
            if skip and controller.node_id in skip:
                continue
            # Down since before this frame (then ``receivers`` already
            # leaves it out) or crashed by an earlier recipient's upcall.
            if controller.crashed or controller.tec > BUS_OFF_THRESHOLD:
                receivers = receivers.remove(controller.node_id)
                continue
            if first is None:
                controller.deliver(frame)
            else:
                if controller.rec:
                    controller.rec -= 1
                for listener in first:
                    listener(mid)
                for listener in second:
                    listener(mid, data)
            if self._unfit_marks != marks:
                # That upcall took a controller down. One visited later is
                # caught at its turn above; one the loop never visits misses
                # the frame when its place in the delivery order was still
                # to come.
                marks = self._unfit_marks
                slot = plan.slot
                here = slot[controller.node_id]
                for node_id, other in self._unfit.items():
                    if (
                        not other.alive
                        and node_id not in plan.visited
                        and slot.get(node_id, -1) > here
                    ):
                        receivers = receivers.remove(node_id)
        return receivers

    def _sift_unfit(self, plan: _DeliveryPlan, skip: Collection[int]) -> tuple:
        """Look at the controllers the ``_unfit`` register names.

        Returns the planned ones that are down (node ids, in register
        order), heals the REC of the planned ones the delivery loop will
        neither visit nor skip (``CanController.deliver``'s heal) and drops
        the ones found fit again.
        """
        down = ()
        unfit = self._unfit
        slot = plan.slot
        for node_id, controller in list(unfit.items()):
            if controller.crashed or controller.tec > BUS_OFF_THRESHOLD:
                if node_id in slot:
                    down += (node_id,)
            elif not controller.rec:
                del unfit[node_id]
            elif (
                node_id in slot
                and node_id not in plan.visited
                and node_id not in skip
            ):
                controller.rec -= 1
        return down

    def _build_plan(
        self, frame: CanFrame, plans: Dict[int, _DeliveryPlan], key: int
    ) -> _DeliveryPlan:
        """Compile the delivery plan for ``frame``'s kind.

        Every accepting controller, in attach order. One driven by the
        standard layer contributes what that layer resolves for the kind
        (:meth:`CanStandardLayer._plan_delivery`): listeners that named a
        collective form are gathered under it — the forms are called where
        the first such controller stands among the entries — and the
        controller gets a per-node entry only when something else is left
        to upcall. Any other receiver (a custom handler, a redundancy
        facade, a gateway port) gets the generic ``controller.deliver``
        entry; one with no handler at all gets none.
        """
        # Deferred import: the driver imports the controller module, and
        # the bus is imported by layers below it — binding at build time
        # keeps the module graph acyclic.
        from repro.can.driver import CanStandardLayer

        handle_rx = CanStandardLayer._handle_rx
        mtype = frame.mid.mtype
        remote = frame.remote
        ident = frame.identifier
        controllers = []
        entries = []
        #: ``(collective, takes_data)`` -> ``[(node id, listener), ...]``
        members: Dict[tuple, list] = {}
        for controller in self._controllers.values():
            if not controller.accepts(ident):
                continue
            controllers.append(controller)
            handler = controller.on_rx
            if handler is None:
                continue
            if getattr(handler, "__func__", None) is not handle_rx:
                entries.append((controller, None, None))
                continue
            collected, first, second = handler.__self__._plan_delivery(
                remote, mtype
            )
            if collected and not members:
                entries.append((None, None, None))
            for listener, collective, takes_data in collected:
                members.setdefault((collective, takes_data), []).append(
                    (controller.node_id, listener)
                )
            if first or second:
                entries.append((controller, first, second))
        if len(plans) >= _ACCEPT_TABLE_LIMIT:
            plans.clear()
        # nty/rtr-ind forms first (a stable sort on ``takes_data``).
        collectives = sorted(
            (form + (tuple(pairs),) for form, pairs in members.items()),
            key=lambda collective: collective[1],
        )
        plan = plans[key] = _DeliveryPlan(
            tuple(controllers), tuple(entries), tuple(collectives)
        )
        return plan

    def _resolve_fault(
        self,
        tx: _Transmission,
        alive: List[CanController],
        verdict: FaultVerdict,
    ) -> None:
        """An error frame: error signalling at every alive receiver outside
        the verdict's accepting set, the accepting subset's delivery (by
        :meth:`_deliver`, like any frame), retransmission, bus-off recovery
        and the sender's crash when the verdict asks for it."""
        sender_ids = {c.node_id for c in tx.senders}
        accepting = verdict.accepting
        ident = tx.frame.identifier
        skip = set(sender_ids)
        taken = False
        for controller in alive:
            node_id = controller.node_id
            if node_id in sender_ids:
                continue
            if node_id in accepting:
                # Error signalling happens at the bit level, *before*
                # acceptance filtering: this node saw a valid frame (no REC
                # bump) even if its filter then drops it.
                taken = taken or controller.accepts(ident)
            else:
                controller.rx_error()
                skip.add(node_id)
        if taken:
            self._deliver(tx, skip)
        # Senders see the error and schedule the automatic retransmission.
        for sender, request in zip(tx.senders, tx.requests):
            sender.finish_error(request)
            if (
                self.bus_off_recovery
                and not sender.crashed
                and sender.state is ControllerState.BUS_OFF
            ):
                self._schedule_bus_off_recovery(sender)
        if verdict.crash_sender:
            # The paper's inconsistent-omission scenario: the sender dies
            # before the retransmission goes out.
            for sender in tx.senders:
                sender.crash()
                if self._spans.enabled:
                    self._spans.instant(
                        "node.crash",
                        "node",
                        node=sender.node_id,
                        parent=tx.span_id,
                    )
                self._sim.trace.record(
                    self._sim.now, "node.crash", node=sender.node_id
                )

    def _go_idle(self) -> None:
        self._busy = False
        self.kick()

    def _schedule_bus_off_recovery(self, controller: CanController) -> None:
        recovery_ticks = self.timing.bits_to_ticks(128 * 11)

        def recover() -> None:
            if controller.crashed:
                return
            controller.tec = 0
            controller.rec = 0
            self.stats.bus_off_recoveries += 1
            self._sim.trace.record(
                self._sim.now, "node.bus_off_recovery", node=controller.node_id
            )
            self.kick()

        self._sim.schedule(recovery_ticks, recover)

    # -- introspection --------------------------------------------------------------

    def utilization(self, window_ticks: Optional[int] = None) -> float:
        """Fraction of bus capacity consumed so far (or over ``window_ticks``)."""
        elapsed = window_ticks if window_ticks is not None else self._sim.now
        if elapsed <= 0:
            return 0.0
        return self.timing.bits_to_ticks(self.stats.busy_bits) / elapsed
