"""The arbitration reference: what popping the ready heap has to equal.

``CanBus._contend`` pops the winner of an arbitration, and the requests that
go out with it, off a heap the controllers keep up to date, and
``CanBus._has_offer`` reads that heap to decide whether a frame's completion
schedules the next arbitration. The oracle it
is checked against is arbitration the way the paper describes it: every
attached controller that is up offers its queue head, the offers are
ordered by ``(priority_key, node_id)``, and the lowest identifier wins,
bit-identical frames clustering with it. It lives here, not in the bus —
one implementation runs, the other judges it.
"""

from contextlib import contextmanager

from repro.can.bus import CanBus
from repro.errors import BusError


def contend_by_scan(bus):
    """``CanBus._contend`` by polling every controller; returns the same
    ``(priority_key, node_id, request, controller)`` entries."""
    # The heap is not read here; emptying it keeps a long reference run
    # from piling up the entries the controllers keep pushing.
    bus._ready.clear()
    offers = []
    for controller in bus._controllers.values():
        request = controller.head_request()
        if request is not None:
            offers.append((request.priority_key, controller.node_id, request, controller))
    if not offers:
        return []
    offers.sort(key=lambda offer: offer[:2])
    winner = offers[0][2].frame
    taken = [offers[0]]
    for offer in offers[1:]:
        frame = offer[2].frame
        if frame.identifier != winner.identifier:
            continue
        if frame == winner:
            if bus.clustering:
                taken.append(offer)
            continue
        if not frame.remote and not winner.remote:
            raise BusError(
                f"two different data frames contend with identifier "
                f"{winner.identifier:#x}: {winner!r} vs {frame!r}"
            )
        # Same identifier, one data / one remote: the data frame's dominant
        # RTR bit wins; the remote frame just loses arbitration.
    if bus._spans.enabled:
        for offer in offers:
            if offer not in taken:
                bus._spans.event(offer[2].span_id, "arb-loss")
    return taken


def has_offer_by_scan(bus):
    """``CanBus._has_offer`` by polling every controller: a request is
    queued somewhere. One that is down counts, as a dormant controller does
    on the heap: it may be back up by the next start of frame."""
    return any(controller._queue for controller in bus._controllers.values())


@contextmanager
def scan_arbitration():
    """Every bus arbitrates by :func:`contend_by_scan` inside the block and
    decides whether a next arbitration is due by :func:`has_offer_by_scan`."""
    heap = CanBus._contend, CanBus._has_offer
    CanBus._contend = contend_by_scan
    CanBus._has_offer = has_offer_by_scan
    try:
        yield
    finally:
        CanBus._contend, CanBus._has_offer = heap
