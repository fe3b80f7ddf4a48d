"""Adversarial workloads outside the fail-silent fault model.

Fig. 11 is candid: *babbling idiot avoidance — not provided* (TTP has a bus
guardian; CANELy, like standard CAN, does not — the problem was later
studied in Broster & Burns [2]). A babbling node violates the
weak-fail-silent assumption by transmitting continuously at high priority,
starving every lower-priority identifier.

:class:`BabblingIdiot` reproduces the failure so tests and benchmarks can
measure the admitted limitation: with the babbler active, explicit
life-signs (priority below FDA) stop winning arbitration, surveillance
timers expire network-wide and the membership view collapses — consistently
(the agreement machinery itself keeps working), but uselessly.
"""

from __future__ import annotations

from repro.can.bus import CanBus
from repro.can.controller import CanController
from repro.can.frame import remote_frame
from repro.can.identifiers import MessageId, MessageType
from repro.errors import ConfigurationError
from repro.sim.kernel import Simulator


class BabblingIdiot:
    """A node that transmits continuously at a chosen priority.

    Args:
        sim: the simulator.
        bus: the bus to babble on.
        node_id: the babbler's (stolen) node identifier — must not collide
            with a protocol participant.
        mid: the identifier to babble; defaults to a top-priority FDA frame
            naming a nonexistent node (pure bandwidth starvation, no
            semantic poisoning).
        gap: ticks between consecutive submissions (0 = saturate).
    """

    def __init__(
        self,
        sim: Simulator,
        bus: CanBus,
        node_id: int,
        mid: MessageId = None,
        gap: int = 0,
    ) -> None:
        if gap < 0:
            raise ConfigurationError(f"gap must be non-negative: {gap}")
        self._sim = sim
        self.controller = CanController(node_id)
        bus.attach(self.controller)
        self._mid = mid if mid is not None else MessageId(MessageType.FDA, node=255)
        self._frame = remote_frame(self._mid)
        #: Ticks between polls: ``gap``, or half a babbled frame so that a
        #: request is pending again before the bus next goes idle.
        self._period = max(
            1, gap or bus.timing.bits_to_ticks(self._frame.wire_bits()) // 2
        )
        self._babbling = False
        self.frames_submitted = 0

    def start(self) -> None:
        """Begin babbling."""
        if self._babbling:
            return
        self._babbling = True
        self._submit()

    def stop(self) -> None:
        """Silence the babbler (e.g. a bus guardian kicking in)."""
        self._babbling = False
        self.controller.abort(self._mid)

    def _submit(self) -> None:
        if not self._babbling:
            return
        # Keep exactly one request pending so the babbler re-wins
        # arbitration the instant the bus goes idle.
        if not self.controller.has_pending(self._mid):
            self.controller.submit(self._frame)
            self.frames_submitted += 1
        self._sim.schedule(self._period, self._submit)
