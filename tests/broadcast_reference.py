"""The broadcast reference: what a delivery plan has to be equivalent to.

``CanBus`` delivers every frame through a cached plan per kind of frame.
The oracle the plan is checked against is delivery the way the paper
describes it: hand the frame to every alive controller in attach order,
one receiver at a time — an error frame's accepting subset too, the nodes
the bus skips left out. It lives
here, not in the bus — one implementation runs, the other judges it.
"""

from contextlib import contextmanager

from repro.can.bus import CanBus
from repro.util.sets import WIDE_MAX_CAPACITY, NodeSet


def deliver_broadcast(bus, tx, skip=()):
    """``CanBus._deliver_planned`` without a plan; returns who took it."""
    frame = tx.frame
    took = []
    for controller in bus.alive_controllers():
        # .ind includes own transmissions (paper Fig. 4); an error frame's
        # senders and the receivers that signalled the error are in
        # ``skip``. The aliveness re-check guards against a crash triggered
        # by an earlier recipient's upcall.
        if controller.node_id in skip:
            continue
        if controller.alive:
            controller.deliver(frame)
            took.append(controller.node_id)
    return NodeSet(took, WIDE_MAX_CAPACITY)


@contextmanager
def broadcast_delivery():
    """Every bus delivers by :func:`deliver_broadcast` inside the block."""
    planned = CanBus._deliver_planned
    CanBus._deliver_planned = deliver_broadcast
    try:
        yield
    finally:
        CanBus._deliver_planned = planned
