"""Failure Detection Agreement (FDA) micro-protocol — paper Fig. 6.

A simplified and optimized Eager Diffusion (EDCAN) instance that secures the
reliable broadcast of a *failure-sign* message. The failure-sign carries
only control information — the failed node identifier ``r`` and the FDA
message type — so it travels in a CAN **remote frame**, and identical
failure-signs issued by several detectors cluster into a single physical
frame on the wired-AND bus.

Pseudocode correspondence (line numbers from Fig. 6):

* ``i00-i01`` — per-mid duplicate and request counters.
* ``s00-s05`` — invocation (``fda-can.req``): issue a single transmit
  request for the failure-sign.
* ``r00-r09`` — reception: deliver the first copy upward (``fda-can.nty``)
  and, in the absence of an equivalent transmit request, ask the CAN layer
  to retransmit the failure-sign.

Counter lifetime: the membership layer retires a mid's counters with
:meth:`FdaProtocol.reset` once the failure is folded into a view. Counters
whose failure the membership layer *never* observes (a garbage identifier,
a node outside every view) used to leak; they are now evicted after
``eviction_cycles`` membership cycles without activity — safe because the
fault model bounds failure-sign retransmissions to the reference window
``Trd`` (on the order of one cycle), so an untouched counter can never be
consulted again.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.can.driver import CanStandardLayer
from repro.can.identifiers import MessageId, MessageType
from repro.obs.spans import NULL_TRACER
from repro.sim.kernel import Simulator

FailureSignCallback = Callable[[int], None]

#: Membership cycles an untouched counter pair survives before eviction.
DEFAULT_EVICTION_CYCLES = 4


def _metrics_noop(amount: int = 1) -> None:
    """Stand-in for a counter ``inc`` when no simulator is attached."""


class FdaProtocol:
    """Per-node FDA protocol entity.

    ``sim`` is optional for substrate-only tests; when present, failure-sign
    deliveries and counter retirements are traced (``fda.nty`` /
    ``fda.reset`` — what the online monitors watch) and counted in
    ``sim.metrics``.
    """

    def __init__(
        self,
        layer: CanStandardLayer,
        sim: Optional[Simulator] = None,
        eviction_cycles: int = DEFAULT_EVICTION_CYCLES,
    ) -> None:
        if eviction_cycles < 1:
            raise ValueError(
                f"eviction_cycles must be at least 1: {eviction_cycles}"
            )
        self._layer = layer
        self._sim = sim
        self._spans = sim.spans if sim is not None else NULL_TRACER
        self._eviction_cycles = eviction_cycles
        # Bound metric methods resolved once — reception runs per frame.
        if sim is not None:
            metrics = sim.metrics
            self._inc_requests = metrics.counter("fda.requests").inc
            self._inc_delivered = metrics.counter("fda.delivered").inc
            self._inc_retransmissions = metrics.counter(
                "fda.retransmissions"
            ).inc
            self._inc_evicted = metrics.counter("fda.evicted").inc
        else:
            noop = _metrics_noop
            self._inc_requests = noop
            self._inc_delivered = noop
            self._inc_retransmissions = noop
            self._inc_evicted = noop
        # i00-i01: number of failure-sign duplicates / transmit requests,
        # kept per message identifier (i.e. per failed-node identifier).
        self._fs_ndup: Dict[MessageId, int] = {}
        self._fs_nreq: Dict[MessageId, int] = {}
        # Membership cycle index of each mid's last counter activity.
        self._cycle = 0
        self._last_touch: Dict[MessageId, int] = {}
        self._listeners: List[FailureSignCallback] = []
        layer.add_rtr_ind(self._on_rtr_ind, mtype=MessageType.FDA)

    def on_failure_sign(self, callback: FailureSignCallback) -> None:
        """Register an ``fda-can.nty`` listener, called with the failed id."""
        self._listeners.append(callback)

    # -- sender side (s00-s05) ----------------------------------------------------

    def request(self, failed_node: int) -> None:
        """``fda-can.req``: reliably broadcast a failure-sign for ``failed_node``."""
        mid = MessageId(MessageType.FDA, node=failed_node)
        self._last_touch[mid] = self._cycle
        self._fs_nreq[mid] = self._fs_nreq.get(mid, 0) + 1  # s01
        if self._fs_nreq[mid] == 1:  # s02
            self._inc_requests()
            self._layer.rtr_req(mid)  # s03: failure-sign transmit request

    # -- recipient side (r00-r09) -----------------------------------------------------

    def _on_rtr_ind(self, mid: MessageId) -> None:
        self._last_touch[mid] = self._cycle
        self._fs_ndup[mid] = self._fs_ndup.get(mid, 0) + 1  # r01
        if self._fs_ndup[mid] != 1:  # r02
            return
        sim = self._sim
        if sim is not None:
            self._inc_delivered()
            sim.trace.record(
                sim.now,
                "fda.nty",
                node=self._layer.node_id,
                failed=mid.node,
            )
        nty_span = None
        if self._spans.enabled:
            # Everything downstream — the fd/membership notification chain
            # and the r06 echo retransmission — is a consequence of this
            # first-copy delivery.
            nty_span = self._spans.instant(
                "fda.nty", "fda", node=self._layer.node_id, failed=mid.node
            )
            self._spans.push(nty_span)
        try:
            for listener in list(self._listeners):  # r03: fda-can.nty upward
                listener(mid.node)
            self._fs_nreq[mid] = self._fs_nreq.get(mid, 0) + 1  # r04
            if self._fs_nreq[mid] == 1:  # r05
                self._inc_retransmissions()
                self._layer.rtr_req(mid)  # r06: failure-sign retransmission
        finally:
            if nty_span is not None:
                self._spans.pop()

    # -- housekeeping ------------------------------------------------------------------

    def reset(self, failed_node: int) -> None:
        """Forget the counters for one failed node identifier.

        Called by the membership layer once the failure has been processed
        in a view; safe because a removed node does not attempt
        reintegration before a period much longer than the membership cycle
        (Section 6.4 assumption).
        """
        mid = MessageId(MessageType.FDA, node=failed_node)
        had_dup = self._fs_ndup.pop(mid, None) is not None
        had_req = self._fs_nreq.pop(mid, None) is not None
        retired = had_dup or had_req
        self._last_touch.pop(mid, None)
        if retired and self._sim is not None:
            self._sim.trace.record(
                self._sim.now,
                "fda.reset",
                node=self._layer.node_id,
                failed=failed_node,
            )

    def reset_all(self) -> None:
        """Forget every counter (node reboot)."""
        self._fs_ndup.clear()
        self._fs_nreq.clear()
        self._last_touch.clear()

    def advance_cycle(self) -> int:
        """Note a membership cycle boundary; evict long-untouched counters.

        Called by the membership layer once per cycle. Counter pairs with
        no activity for ``eviction_cycles`` cycles are dropped — the
        eviction path for failures the membership layer never folds into a
        view, without which week-long campaigns leak one counter pair per
        garbage identifier. Returns the number of mids evicted.
        """
        self._cycle += 1
        horizon = self._cycle - self._eviction_cycles
        stale = [
            mid
            for mid, touched in self._last_touch.items()
            if touched <= horizon
        ]
        for mid in stale:
            del self._last_touch[mid]
            self._fs_ndup.pop(mid, None)
            self._fs_nreq.pop(mid, None)
            if self._sim is not None:
                self._sim.trace.record(
                    self._sim.now,
                    "fda.evict",
                    node=self._layer.node_id,
                    failed=mid.node,
                )
        if stale:
            self._inc_evicted(len(stale))
        return len(stale)

    @property
    def tracked_mids(self) -> int:
        """Distinct failed-node identifiers with live counters."""
        return len(
            self._fs_ndup.keys() | self._fs_nreq.keys() | self._last_touch.keys()
        )

    def duplicates_seen(self, failed_node: int) -> int:
        """Physical failure-sign copies observed for ``failed_node``."""
        return self._fs_ndup.get(MessageId(MessageType.FDA, node=failed_node), 0)
