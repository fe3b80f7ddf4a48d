"""CAL / CANopen network management — the centralized baseline of §6.6.

The CAN Application Layer (CAL), as used by the CANopen communication
profile, detects node crashes with a master-slave scheme: one master
cyclically inquires each slave with a CAN remote frame
(:class:`CalNodeGuarding`); the slave answers with its current state. A
slave that misses its answers for a *node life time* (guard time x life
time factor) is declared failed. The scheme has the core weaknesses the
paper criticises and the related-work benchmark quantifies:

* node guarding is **centralized** — a master crash disables detection
  entirely;
* detection latency is governed by configuration-table periods, not by
  the traffic already on the bus (no implicit life-signs);
* there is **no agreement**: the master times slaves out on its own, with
  no mechanism making the failure notification consistent.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.can.driver import CanStandardLayer
from repro.can.identifiers import MessageId, MessageType
from repro.errors import ConfigurationError
from repro.sim.kernel import Simulator
from repro.sim.timers import TimerService

#: ``ref`` subtype codes within the NM message type.
_POLL_REF = 0x100
_STATUS_REF = 0x200

FailureCallback = Callable[[int], None]


class CalNodeGuarding:
    """One node's CAL node-guarding entity (master or slave).

    Args:
        layer: the node's CAN standard layer.
        timers: the node's timer service.
        sim: the simulator.
        master_id: identifier of the guarding master.
        slave_ids: identifiers of the guarded slaves.
        guard_time: polling slot duration — the master polls one slave per
            guard slot, round-robin.
        life_time_factor: missed polls tolerated before a slave is declared
            failed (CANopen's lifeTimeFactor).
    """

    def __init__(
        self,
        layer: CanStandardLayer,
        timers: TimerService,
        sim: Simulator,
        master_id: int,
        slave_ids: List[int],
        guard_time: int,
        life_time_factor: int = 2,
    ) -> None:
        if guard_time <= 0:
            raise ConfigurationError(f"guard time must be positive: {guard_time}")
        if life_time_factor < 1:
            raise ConfigurationError(
                f"life time factor must be >= 1: {life_time_factor}"
            )
        if master_id in slave_ids:
            raise ConfigurationError("the master does not guard itself")
        self._layer = layer
        self._timers = timers
        self._sim = sim
        self.master_id = master_id
        self.slave_ids = list(slave_ids)
        self.guard_time = guard_time
        self.life_time = guard_time * len(slave_ids) * life_time_factor
        self._is_master = layer.node_id == master_id
        self._poll_index = 0
        self._last_seen: Dict[int, int] = {}
        self.detected: Dict[int, int] = {}
        self._listeners: List[FailureCallback] = []
        self.polls_sent = 0
        self.statuses_sent = 0
        self._running = False
        layer.add_rtr_ind(self._on_poll, mtype=MessageType.NM)
        layer.add_data_ind(self._on_status, mtype=MessageType.NM)

    def on_failure(self, callback: FailureCallback) -> None:
        """Register a failure listener (only ever fired at the master)."""
        self._listeners.append(callback)

    def start(self) -> None:
        """Start the guarding service (master begins polling)."""
        if self._running:
            return
        self._running = True
        if self._is_master:
            now = self._sim.now
            for slave in self.slave_ids:
                self._last_seen[slave] = now
            self._timers.start_alarm(self.guard_time, self._poll_next)

    # -- master side ---------------------------------------------------------------

    def _poll_next(self) -> None:
        slave = self.slave_ids[self._poll_index % len(self.slave_ids)]
        self._poll_index += 1
        self.polls_sent += 1
        self._layer.rtr_req(MessageId(MessageType.NM, node=slave, ref=_POLL_REF))
        self._check_lifetimes()
        self._timers.start_alarm(self.guard_time, self._poll_next)

    def _check_lifetimes(self) -> None:
        now = self._sim.now
        for slave, seen in self._last_seen.items():
            if slave in self.detected:
                continue
            if now - seen > self.life_time:
                self.detected[slave] = now
                for listener in list(self._listeners):
                    listener(slave)

    def _on_status(self, mid: MessageId, data: bytes) -> None:
        if self._is_master and mid.ref == _STATUS_REF:
            self._last_seen[mid.node] = self._sim.now

    # -- slave side -----------------------------------------------------------------

    def _on_poll(self, mid: MessageId) -> None:
        if mid.ref != _POLL_REF or mid.node != self._layer.node_id:
            return
        if not self._running:
            return
        self.statuses_sent += 1
        self._layer.data_req(
            MessageId(MessageType.NM, node=self._layer.node_id, ref=_STATUS_REF),
            bytes([0x05]),  # CANopen "operational" state
        )
