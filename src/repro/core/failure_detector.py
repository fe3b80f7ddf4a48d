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
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.can.driver import CanStandardLayer
from repro.can.identifiers import MessageId, MessageType
from repro.core.config import CanelyConfig
from repro.core.fda import FdaProtocol
from repro.sim.timers import Alarm, TimerService

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
        self._timers = timers
        self._sim = timers.sim
        self._config = config
        self._fda = fda
        # Surveillance durations resolved once (the config is frozen): the
        # rearm below runs per observed frame per monitored node.
        self._local_id = layer.node_id
        self._duration_local = config.thb  # a02
        self._duration_remote = config.thb + config.ttd  # a04
        # i00: surveillance timer identifiers, kept per monitored node.
        self._tid: Dict[int, Optional[Alarm]] = {}
        self._listeners: List[FailureCallback] = []
        self.els_sent = 0
        # Bound metric methods resolved once — expiries run per heartbeat.
        metrics = self._sim.metrics
        self._inc_els_sent = metrics.counter("fd.els_sent").inc
        self._inc_detections = metrics.counter("fd.detections").inc
        self._spans = self._sim.spans
        layer.add_data_nty(self._on_activity)  # f03: implicit life-signs
        # f03: explicit life-signs share the activity clause (own
        # transmissions included, which is how the local heartbeat timer
        # re-arms after an ELS broadcast).
        layer.add_rtr_ind(self._on_activity, mtype=MessageType.ELS)
        fda.on_failure_sign(self._on_failure_sign)  # f13

    # -- upper-layer interface ----------------------------------------------------

    def on_failure(self, callback: FailureCallback) -> None:
        """Register an ``fd-can.nty`` listener, called with the failed id."""
        self._listeners.append(callback)

    def start(self, node_id: int) -> None:
        """``fd-can.req(START, r)``: begin surveillance of ``node_id``."""
        self._alarm_start(node_id)  # f00-f01

    def stop(self, node_id: int) -> None:
        """``fd-can.req(STOP, r)``: end surveillance of ``node_id``."""
        alarm = self._tid.pop(node_id, None)  # f17-f18
        self._timers.cancel_alarm(alarm)

    def reset(self) -> None:
        """Stop every surveillance timer (node reboot)."""
        for node_id in list(self._tid):
            self.stop(node_id)

    def monitoring(self, node_id: int) -> bool:
        """True while the service is active for ``node_id``."""
        return node_id in self._tid

    @property
    def monitored_nodes(self) -> List[int]:
        """Nodes currently under surveillance."""
        return sorted(self._tid)

    # -- fd-alarm-start (a00-a06) ---------------------------------------------------

    def _alarm_start(self, node_id: int) -> None:
        if node_id == self._local_id:  # a01
            duration = self._duration_local  # a02: local timer
        else:
            duration = self._duration_remote  # a04: remote
        # This runs once per observed frame per monitored node — the
        # hottest path of the whole protocol suite. The in-place restart
        # reuses the alarm handle and its expiry closure; the
        # cancel-and-start fallback below is the seed-faithful idiom the
        # restart is provably equivalent to.
        timers = self._timers
        alarm = self._tid.get(node_id)
        if alarm is not None and timers.restart_alarm(alarm, duration):
            return
        timers.cancel_alarm(alarm)
        self._tid[node_id] = timers.start_alarm(
            duration,
            lambda: self._on_expire(node_id),
            name="fd.surveillance",
            tag=node_id,
        )

    # -- event clauses ------------------------------------------------------------------

    def _on_activity(self, mid: MessageId) -> None:
        # f03-f05: any frame from a monitored node — a data frame (implicit
        # activity) or an explicit life-sign — restarts its surveillance
        # timer. One dict probe resolves both "monitored?" and the alarm
        # handle, and the common rearm is inlined all the way down to the
        # kernel queue's in-place reschedule: this upcall runs once per
        # observed frame per monitored node, and at that rate even
        # ``restart_alarm``'s call frame is measurable. The inline body
        # transcribes its fast path exactly (same guards, same
        # effect); everything else falls back to the method and, failing
        # that, the seed-faithful ``_alarm_start``.
        node = mid.node
        alarm = self._tid.get(node)
        if alarm is None:
            if node in self._tid:
                self._alarm_start(node)
            return
        duration = (
            self._duration_local
            if node == self._local_id
            else self._duration_remote
        )
        timers = self._timers
        if (
            timers._rearm_plain
            and alarm._active
            and alarm._span is None
            and not self._spans.enabled
        ):
            sim = self._sim
            event = alarm._event
            queue = sim._queue
            if event._queue is queue and not event.cancelled:
                deadline = sim._now + duration
                if deadline >= event.time:
                    queue.reschedule(event, deadline)
                    alarm.deadline = deadline
                    return
        if timers.restart_alarm(alarm, duration):
            return
        self._alarm_start(node)

    def _on_expire(self, node_id: int) -> None:
        if node_id not in self._tid:
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
            if self._sim.trace.wants("fd.detect"):
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
        alarm = self._tid.pop(node_id, None)  # f14
        self._timers.cancel_alarm(alarm)
        for listener in list(self._listeners):  # f15
            listener(node_id)
