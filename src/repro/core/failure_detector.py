"""Node failure detection protocol — paper Fig. 8.

One surveillance timer per monitored node. Node activity — *any* data frame
(tapped via the ``can-data.nty`` extension, own transmissions included) or
an explicit life-sign (ELS) remote frame — restarts the node's timer, so
normal traffic implicitly doubles as heartbeats and explicit life-signs are
only ever transmitted by nodes that stayed silent for a whole heartbeat
period.

* The timer of the **local** node runs for ``Thb``; its expiry broadcasts an
  ELS remote frame (which, arriving back as an indication, restarts the
  timer — Fig. 8 lines f03-f04).
* The timer of a **remote** node runs for ``Thb + Ttd`` (the transmission
  delay bound of MCAN4); its expiry signals a node crash, disseminated
  consistently through the FDA micro-protocol.

Pseudocode correspondence: ``i00`` initialization, ``a00-a06`` the
``fd-alarm-start`` auxiliary function, ``f00-f19`` the event clauses.

Where the deadline lives: this class is the per-node entity and keeps the
``fd-can`` interface, but "observer *i* watches subject *s* until *t*" is a
row of the simulation's one :class:`~repro.sim.timers.SurveillanceTable`,
reached through the node's :class:`~repro.sim.timers.Watcher`. All correct
receivers of a CAN frame see the same traffic (the paper's premise), so the
table keeps one deadline per *group* of observers that heard the same frame
from *s* — normally two groups, *s* itself at ``Thb`` and everybody else at
``Thb + Ttd`` — and splits a group only where the paper says receivers
diverge (an inconsistent omission, a later START, a different drift). The
activity clause has two entry widths onto that one mechanism: the bus's
delivery plan tells the table once per frame for all receivers
(:meth:`SurveillanceTable.heard`, registered below as the collective form of
:meth:`FailureDetector._on_activity`), and every per-receiver delivery path
calls ``_on_activity`` itself; "all at once" equals "each in delivery
order". See :mod:`repro.sim.timers` for the rule on same-instant ties.
"""

from __future__ import annotations

from typing import Callable, List

from repro.can.driver import CanStandardLayer
from repro.can.identifiers import MessageId, MessageType
from repro.core.config import CanelyConfig
from repro.core.fda import FdaProtocol
from repro.sim.timers import TimerService

FailureCallback = Callable[[int], None]


class FailureDetector:
    """Per-node failure detection protocol entity."""

    def __init__(
        self,
        layer: CanStandardLayer,
        timers: TimerService,
        config: CanelyConfig,
        fda: FdaProtocol,
    ) -> None:
        self._layer = layer
        self._sim = timers.sim
        self._config = config
        self._fda = fda
        self._local_id = layer.node_id
        self._duration_local = config.thb  # a02
        self._duration_remote = config.thb + config.ttd  # a04
        # i00: the surveillance timers, kept per monitored node — in the
        # shared table.
        self._watcher = timers.watcher(self._on_expire, name="fd.surveillance")
        self._listeners: List[FailureCallback] = []
        self.els_sent = 0
        # Bound metric methods resolved once — expiries run per heartbeat.
        metrics = self._sim.metrics
        self._inc_els_sent = metrics.counter("fd.els_sent").inc
        self._inc_detections = metrics.counter("fd.detections").inc
        self._spans = self._sim.spans
        heard = self._watcher.table.heard
        # f03: implicit life-signs
        layer.add_data_nty(self._on_activity, collective=heard)
        # f03: explicit life-signs share the activity clause (own
        # transmissions included, which is how the local heartbeat timer
        # re-arms after an ELS broadcast).
        layer.add_rtr_ind(
            self._on_activity, mtype=MessageType.ELS, collective=heard
        )
        fda.on_failure_sign(self._on_failure_sign)  # f13

    # -- upper-layer interface ----------------------------------------------------

    def on_failure(self, callback: FailureCallback) -> None:
        """Register an ``fd-can.nty`` listener, called with the failed id."""
        self._listeners.append(callback)

    def start(self, node_id: int) -> None:
        """``fd-can.req(START, r)``: begin surveillance of ``node_id``."""
        # f00-f01 -> a00-a06: the local timer runs Thb, a remote one Thb + Ttd.
        self._watcher.watch(
            node_id,
            self._duration_local
            if node_id == self._local_id
            else self._duration_remote,
        )

    def stop(self, node_id: int) -> None:
        """``fd-can.req(STOP, r)``: end surveillance of ``node_id``."""
        self._watcher.unwatch(node_id)  # f17-f18

    def reset(self) -> None:
        """Stop every surveillance timer (node reboot)."""
        self._watcher.clear()

    def monitoring(self, node_id: int) -> bool:
        """True while the service is active for ``node_id``."""
        return self._watcher.watching(node_id)

    @property
    def monitored_nodes(self) -> List[int]:
        """Nodes currently under surveillance."""
        return sorted(self._watcher.subjects)

    # -- event clauses ------------------------------------------------------------------

    def _on_activity(self, mid: MessageId) -> None:
        # f03-f05: any frame from a monitored node — a data frame (implicit
        # activity) or an explicit life-sign — restarts its surveillance
        # timer. This is the one-receiver entry; the table's collective
        # form stands in for it on the bus's plan path, so it must stay
        # nothing but this call.
        self._watcher.heard(mid.node)

    def _on_expire(self, node_id: int) -> None:
        if not self._watcher.watching(node_id):
            return
        if node_id == self._layer.node_id:  # f07
            # f08: the local node stayed silent for Thb — broadcast an
            # explicit life-sign. The returning indication restarts the timer.
            self.els_sent += 1
            self._inc_els_sent()
            els_span = None
            if self._spans.enabled:
                els_span = self._spans.instant(
                    "fd.els", "fd", node=node_id
                )
                self._spans.push(els_span)
            try:
                self._layer.rtr_req(MessageId(MessageType.ELS, node=node_id))
            finally:
                if els_span is not None:
                    self._spans.pop()
        else:
            # f10: a remote node stayed silent beyond Thb + Ttd — it failed.
            self._inc_detections()
            self._sim.trace.record(
                self._sim.now,
                "fd.detect",
                node=self._layer.node_id,
                failed=node_id,
            )
            detect_span = None
            if self._spans.enabled:
                detect_span = self._spans.instant(
                    "fd.detect",
                    "fd",
                    node=self._layer.node_id,
                    failed=node_id,
                )
                self._spans.push(detect_span)
            try:
                self._fda.request(node_id)
            finally:
                if detect_span is not None:
                    self._spans.pop()

    def _on_failure_sign(self, node_id: int) -> None:
        # f13-f16: a consistent failure-sign arrived: stop surveillance and
        # notify the companion site membership protocol.
        self._watcher.unwatch(node_id)  # f14
        for listener in list(self._listeners):  # f15
            listener(node_id)
