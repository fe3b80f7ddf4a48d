"""Optional channel redundancy (Fig. 11: "channel redundancy — yes
(optional)").

Media redundancy (:mod:`repro.can.redundancy`) replicates the *cabling* of
one logical channel; channel redundancy replicates the **whole channel** —
two independent CAN buses, two controllers per node, every transmit request
issued on both. A node stays connected as long as either channel works,
including against babbling or bus-off conditions confined to one channel.

:class:`DualChannelLayer` exposes the same standard-layer interface as
:class:`~repro.can.driver.CanStandardLayer`, so the whole CANELy protocol
suite runs over it unchanged:

* requests (``data_req``/``rtr_req``) are submitted on both channels;
* receptions are deduplicated with *twin suppression*: the second copy of
  the same frame arriving within the pairing window is dropped. The window
  must exceed the worst-case skew between the channels (their independent
  arbitration can reorder traffic) and be shorter than the minimum
  legitimate repetition interval of any identifier;
* confirmation fires on the first channel to confirm;
* aborts apply to both channels.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.can.controller import CanController
from repro.can.driver import (
    CanStandardLayer,
    CnfListener,
    DataIndListener,
    NtyListener,
    RtrIndListener,
)
from repro.can.identifiers import MessageId, MessageType
from repro.errors import ConfigurationError
from repro.sim.kernel import Simulator


class _DualControllerFacade:
    """Aggregates the two physical controllers behind one node facade."""

    def __init__(self, primary: CanController, secondary: CanController) -> None:
        self._controllers = (primary, secondary)
        # Span tracer facade: both channels share one simulator, hence one
        # tracer; layered protocols reach it via ``layer.controller._spans``.
        self._spans = primary._spans

    @property
    def crashed(self) -> bool:
        return self._controllers[0].crashed

    def crash(self) -> None:
        for controller in self._controllers:
            controller.crash()

    @property
    def tec(self) -> int:
        return max(c.tec for c in self._controllers)

    @tec.setter
    def tec(self, value: int) -> None:
        for controller in self._controllers:
            controller.tec = value

    @property
    def rec(self) -> int:
        return max(c.rec for c in self._controllers)

    @rec.setter
    def rec(self, value: int) -> None:
        for controller in self._controllers:
            controller.rec = value

    @crashed.setter
    def crashed(self, value: bool) -> None:
        for controller in self._controllers:
            controller.crashed = value
        if not value:
            for controller in self._controllers:
                controller.tec = 0
                controller.rec = 0


class DualChannelLayer:
    """A standard-layer facade over two replicated channels."""

    def __init__(
        self,
        sim: Simulator,
        channel_a: CanStandardLayer,
        channel_b: CanStandardLayer,
        pairing_window: int,
    ) -> None:
        if channel_a.node_id != channel_b.node_id:
            raise ConfigurationError(
                "both channels must serve the same node: "
                f"{channel_a.node_id} vs {channel_b.node_id}"
            )
        if pairing_window <= 0:
            raise ConfigurationError(
                f"pairing window must be positive: {pairing_window}"
            )
        self._sim = sim
        self._channels = (channel_a, channel_b)
        self._window = pairing_window
        self.controller = _DualControllerFacade(
            channel_a.controller, channel_b.controller
        )
        # Twin suppression state, per kind of upcall.
        self._last_seen: Dict[Tuple[str, object], int] = {}
        self._data_ind: List[Tuple[Optional[MessageType], DataIndListener]] = []
        self._rtr_ind: List[Tuple[Optional[MessageType], RtrIndListener]] = []
        self._data_cnf: List[Tuple[Optional[MessageType], CnfListener]] = []
        self._data_nty: List[NtyListener] = []
        for channel in self._channels:
            channel.add_data_ind(self._on_data_ind)
            channel.add_rtr_ind(self._on_rtr_ind)
            channel.add_data_cnf(self._on_data_cnf)

    @property
    def node_id(self) -> int:
        """Identifier of the node this layer serves."""
        return self._channels[0].node_id

    # -- request primitives -------------------------------------------------------

    def data_req(self, mid: MessageId, data: bytes = b"") -> None:
        """Queue a data frame on both channels."""
        for channel in self._channels:
            channel.data_req(mid, data)

    def rtr_req(self, mid: MessageId) -> None:
        """Queue a remote frame on both channels."""
        for channel in self._channels:
            channel.rtr_req(mid)

    def abort_req(self, mid: MessageId) -> bool:
        """Abort pending requests on both channels."""
        aborted = False
        for channel in self._channels:
            aborted = channel.abort_req(mid) or aborted
        return aborted

    def has_pending(self, mid: MessageId) -> bool:
        """True while either channel still queues a request for ``mid``."""
        return any(channel.has_pending(mid) for channel in self._channels)

    # -- listener registration -----------------------------------------------------

    def add_data_ind(
        self, listener, mtype: Optional[MessageType] = None, collective=None
    ) -> None:
        # Twin suppression is per node, so a collective form has nothing
        # to collect here: every listener is called for itself.
        self._data_ind.append((mtype, listener))

    def add_rtr_ind(
        self, listener, mtype: Optional[MessageType] = None, collective=None
    ) -> None:
        self._rtr_ind.append((mtype, listener))

    def add_data_cnf(self, listener, mtype: Optional[MessageType] = None) -> None:
        self._data_cnf.append((mtype, listener))

    def add_data_nty(self, listener, collective=None) -> None:
        self._data_nty.append(listener)

    # -- twin suppression ------------------------------------------------------------

    def _suppressed(self, kind: str, key: object) -> bool:
        now = self._sim.now
        last = self._last_seen.get((kind, key))
        self._last_seen[(kind, key)] = now
        if len(self._last_seen) > 4096:
            # The table only needs entries younger than the pairing window;
            # prune stale ones so a long-running node stays bounded.
            horizon = now - 4 * self._window
            self._last_seen = {
                entry: seen
                for entry, seen in self._last_seen.items()
                if seen >= horizon
            }
        return last is not None and now - last <= self._window

    def _on_data_ind(self, mid: MessageId, data: bytes) -> None:
        if self._suppressed("data", (mid, data)):
            return
        for listener in list(self._data_nty):
            listener(mid)
        for mtype, listener in list(self._data_ind):
            if mtype is None or mid.mtype is mtype:
                listener(mid, data)

    def _on_rtr_ind(self, mid: MessageId) -> None:
        if self._suppressed("rtr", mid):
            return
        for mtype, listener in list(self._rtr_ind):
            if mtype is None or mid.mtype is mtype:
                listener(mid)

    def _on_data_cnf(self, mid: MessageId) -> None:
        if self._suppressed("cnf-data", mid):
            return
        for mtype, listener in list(self._data_cnf):
            if mtype is None or mid.mtype is mtype:
                listener(mid)
