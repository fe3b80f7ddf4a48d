"""A miniature Time-Triggered Protocol (TTP/C-style) network.

The paper frames CANELy against TTP (Kopetz & Grunsteidl [10]): fail-silent
nodes on replicated broadcast channels, conflict-free TDMA media access, a
membership service built into the slot structure, and clock synchronization
derived from the global time base. This module implements the slice of TTP
needed to *measure* the comparison columns of Figs. 1 and 11 instead of
quoting them:

* a static **TDMA round**: each node owns one slot per round and transmits
  a frame carrying its membership vector;
* **membership by slot observation**: a node that stays silent in its own
  slot is removed from every receiver's membership at the slot boundary —
  detection latency is therefore bounded by one TDMA round (plus one
  slot);
* **dual channels**: a frame is lost only when *both* channel copies are
  hit, reproducing TTP's omission masking;
* a node that observes itself expelled (e.g. after both copies of its
  frame were lost) turns **passive** — the fail-silent discipline real TTP
  enforces through its bus guardian and clique avoidance.

This is not a complete TTP/C implementation (no cluster startup, no
reintegration, no CRC-of-C-state agreement); it is the behavioural core
that determines membership latency and bandwidth, which is what the
paper's comparison needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.errors import ConfigurationError
from repro.sim.kernel import Simulator

MembershipCallback = Callable[[int, Set[int]], None]


@dataclass
class TtpStats:
    """Aggregate accounting for one TTP network."""

    rounds_completed: int = 0
    frames_sent: int = 0
    frames_lost: int = 0


class TtpNode:
    """One fail-silent TTP node."""

    def __init__(self, node_id: int, network: "TtpNetwork") -> None:
        self.node_id = node_id
        self._network = network
        self.membership: Set[int] = set(network.node_ids)
        self.crashed = False
        self.passive = False
        self._listeners: List[MembershipCallback] = []

    @property
    def operational(self) -> bool:
        """True while the node transmits in its slot."""
        return not self.crashed and not self.passive

    def crash(self) -> None:
        """Fail silent."""
        self.crashed = True

    def on_membership_change(self, callback: MembershipCallback) -> None:
        """Subscribe to ``(removed_node, new_membership)`` notifications."""
        self._listeners.append(callback)

    def _remove(self, node_id: int) -> None:
        if node_id not in self.membership:
            return
        self.membership.discard(node_id)
        if node_id == self.node_id:
            # Expelled: fail-silent discipline demands passivity.
            self.passive = True
        for listener in list(self._listeners):
            listener(node_id, set(self.membership))


class TtpNetwork:
    """A TDMA cluster of :class:`TtpNode`.

    Args:
        sim: the simulator.
        node_count: cluster size (one slot per node per round).
        slot_time: slot duration in kernel ticks.
        channels: replicated broadcast channels (TTP uses 2).
    """

    def __init__(
        self,
        sim: Simulator,
        node_count: int,
        slot_time: int,
        channels: int = 2,
    ) -> None:
        if node_count < 2:
            raise ConfigurationError("a TTP cluster needs at least two nodes")
        if slot_time <= 0:
            raise ConfigurationError(f"slot time must be positive: {slot_time}")
        if channels < 1:
            raise ConfigurationError("at least one channel is required")
        self._sim = sim
        self.slot_time = slot_time
        self.channels = channels
        self.node_ids = list(range(node_count))
        self.nodes: Dict[int, TtpNode] = {
            node_id: TtpNode(node_id, self) for node_id in self.node_ids
        }
        self.stats = TtpStats()
        self._slot_index = 0
        #: Scripted channel omissions: (round, slot) -> channels hit.
        self._omissions: Dict[tuple, int] = {}
        self._started = False

    @property
    def round_time(self) -> int:
        """Duration of one full TDMA round."""
        return self.slot_time * len(self.node_ids)

    def start(self) -> None:
        """Begin TDMA operation at the next slot boundary."""
        if self._started:
            return
        self._started = True
        self._sim.schedule(self.slot_time, self._slot_end)

    def script_omission(self, round_index: int, slot: int, channels_hit: int = 1) -> None:
        """Destroy ``channels_hit`` copies of the frame in one future slot.

        With fewer hits than channels the loss is masked (TTP's omission
        handling by replication); hitting every channel expels the sender.
        """
        self._omissions[(round_index, slot)] = channels_hit

    # -- TDMA machinery ----------------------------------------------------------

    def _slot_end(self) -> None:
        node_count = len(self.node_ids)
        round_index, slot = divmod(self._slot_index, node_count)
        owner = self.nodes[self.node_ids[slot]]

        frame_visible = False
        if owner.operational:
            self.stats.frames_sent += 1
            channels_hit = self._omissions.pop((round_index, slot), 0)
            if channels_hit >= self.channels:
                self.stats.frames_lost += 1
            else:
                frame_visible = True

        if not frame_visible:
            # Silence in the owner's slot: every operational receiver (and
            # the owner itself, if it is alive to observe the channels)
            # removes it at the slot boundary.
            for node in self.nodes.values():
                if not node.crashed:
                    node._remove(owner.node_id)

        self._slot_index += 1
        if self._slot_index % node_count == 0:
            self.stats.rounds_completed += 1
        self._sim.schedule(self.slot_time, self._slot_end)

    # -- queries ---------------------------------------------------------------------

    def memberships_agree(self) -> bool:
        """True when every operational node holds the same membership."""
        views = [
            frozenset(node.membership)
            for node in self.nodes.values()
            if node.operational
        ]
        return all(view == views[0] for view in views)

    def agreed_membership(self) -> Set[int]:
        """The common membership; raises on disagreement."""
        views = {
            node.node_id: frozenset(node.membership)
            for node in self.nodes.values()
            if node.operational
        }
        reference = next(iter(views.values()))
        mismatched = {k: v for k, v in views.items() if v != reference}
        if mismatched:
            raise AssertionError(f"TTP memberships disagree: {mismatched}")
        return set(reference)

    def bandwidth_frames_per_second(self) -> float:
        """TDMA frame rate: one frame per slot, always."""
        from repro.sim.clock import SEC

        return SEC / self.slot_time
