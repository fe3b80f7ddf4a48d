"""The bus-cycle reference: three kernel events per frame.

``CanBus`` spends two kernel events on a frame: ``_arbitrate`` at its
start of frame and ``_complete`` at its end, which files the next start of
frame in a kernel slot and puts the arbitration in it when a request is
queued. The oracle it is checked against is the cycle the bus ran before:
an idle bus arbitrates in a zero-delay event, a completion keeps the bus
busy through a third event at the end of the interframe space
(``_go_idle``), and that event arbitrates anew in a zero-delay event
whether or not anything is queued. It lives here, not in the bus — one
implementation runs, the other judges it. Both leave the same trace rows
in the same order, bus accounting and metrics; the oracle just fires more
events.
"""

from contextlib import contextmanager

from repro.can.bitstream import (
    ERROR_FRAME_BITS,
    INTERFRAME_BITS,
    SUSPEND_TRANSMISSION_BITS,
)
from repro.can.bus import CanBus, _Transmission
from repro.can.controller import ControllerState
from repro.can.errormodel import OK_VERDICT, FaultKind


def kick(bus):
    """Arbitrate in a zero-delay event unless the bus is busy (a frame, its
    interframe space or error frame) or an arbitration is pending."""
    if bus._busy or bus._arbitration_pending:
        return
    bus._arbitration_pending = True
    bus._sim.schedule(0, bus._arbitrate)


def arbitrate(bus):
    bus._arbitration_pending = False
    if bus._busy:
        return
    sim = bus._sim
    if sim.now < bus._inaccessible_until:
        bus._arbitration_pending = True
        sim.schedule_at(bus._inaccessible_until, bus._arbitrate)
        return
    taken = bus._contend()
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
    bus._busy = True
    bus._current = _Transmission(winner.frame, senders, requests, frame_bits)
    if bus._spans.enabled:
        bus._current.span_id = bus._spans.begin(
            "can.tx",
            "bus",
            node=senders[0].node_id,
            parent=winner.span_id,
            mid=str(winner.frame.mid),
            remote=winner.frame.remote,
            cluster=len(requests),
        )
    bus.stats.clustered_requests += len(requests) - 1
    if len(requests) > 1:
        sim.metrics.counter("bus.clustered_requests").inc(len(requests) - 1)
    sim.schedule(bus.timing.bits_to_ticks(frame_bits), bus._complete)


def complete(bus):
    tx = bus._current
    bus._current = None
    sim = bus._sim
    metrics = sim.metrics
    bus._tx_index += 1
    bus.stats.physical_frames += 1
    metrics.counter("bus.frames").inc()
    sender_ids = [c.node_id for c in tx.senders]
    alive = None
    if bus.injector.armed:
        alive = bus.alive_controllers()
        verdict = bus.injector.verdict(
            tx.frame, sender_ids, [c.node_id for c in alive], bus._tx_index - 1
        )
    else:
        verdict = OK_VERDICT
    if tx.span_id is not None:
        bus._spans.end(tx.span_id, kind=verdict.kind.value)
    overhead_bits = INTERFRAME_BITS
    if verdict.kind is FaultKind.NONE:
        for sender, request in zip(tx.senders, tx.requests):
            if sender.alive:
                sender.finish_success(request)
        bus._deliver(tx)
    else:
        bus.stats.error_frames += 1
        metrics.counter("bus.error_frames").inc()
        overhead_bits += ERROR_FRAME_BITS
        if any(
            s.state is ControllerState.ERROR_PASSIVE and s.alive for s in tx.senders
        ):
            overhead_bits += SUSPEND_TRANSMISSION_BITS
        bus._resolve_fault(tx, alive, verdict)
    bits = tx.wire_bits + overhead_bits
    type_name = tx.frame.mid.mtype.name
    bus.stats.busy_bits += bits
    bus.stats.bits_by_type[type_name] = bus.stats.bits_by_type.get(type_name, 0) + bits
    metrics.counter("bus.busy_bits").inc(bits)
    bus._m_utilization.set(bus.utilization())
    sim.trace.record(
        sim.now,
        "bus.tx",
        node=sender_ids[0] if sender_ids else -1,
        mid=tx.frame.mid,
        remote=tx.frame.remote,
        senders=tuple(sender_ids),
        bits=bits,
        kind=verdict.kind.value,
        attempt=tx.requests[0].attempts,
    )
    # The bus stays busy through the interframe space / error frame.
    sim.schedule(bus.timing.bits_to_ticks(overhead_bits), bus._go_idle)


def go_idle(bus):
    bus._busy = False
    bus.kick()


@contextmanager
def three_event_cycle():
    """Every bus runs the three-event frame cycle inside the block."""
    saved = CanBus.kick, CanBus._arbitrate, CanBus._complete
    CanBus.kick, CanBus._arbitrate, CanBus._complete = kick, arbitrate, complete
    CanBus._go_idle = go_idle
    CanBus._busy = False
    try:
        yield
    finally:
        CanBus.kick, CanBus._arbitrate, CanBus._complete = saved
        del CanBus._go_idle, CanBus._busy

