"""Process group membership on top of the site membership service.

The paper motivates the site membership layer as "a crucial assistant for
process group membership management" (Section 6): once every node agrees on
which *sites* are alive, tracking which *processes* belong to which group
reduces to reliable dissemination of group join/leave announcements plus a
rule — processes of a failed or departed site are dropped from every group
the instant the site-level change is notified.

This module implements that layer:

* a **process** is ``(node_id, process_id)`` — several per node;
* group join/leave announcements travel as data frames of type ``GROUP``
  and are *eagerly diffused* (the EDCAN echo trick), so inconsistent
  omissions cannot split a group's view;
* every node tracks the composition of every group it has heard about;
  group views are kept consistent by construction: announcements are
  totally observable (same frames at all nodes) and site-level failures
  arrive through the consistent ``msh-can.nty`` notifications;
* a group change notification is delivered locally whenever a group's
  composition changes.

Announcement encoding: the node field names the announcing site and the
16-bit ``ref`` field carries a per-node announcement sequence number (so
repeated join/leave cycles of the same process are distinct messages); the
payload carries ``(group_id, process_id, action)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.can.driver import CanStandardLayer
from repro.can.identifiers import MessageId, MessageType
from repro.core.membership import MembershipProtocol
from repro.core.views import MembershipChange
from repro.errors import ConfigurationError

#: A process is a (node id, process id) pair.
ProcessId = Tuple[int, int]

_JOIN = 0x01
_LEAVE = 0x02

MAX_GROUP_ID = 0xFF
MAX_PROCESS_ID = 0xFF


@dataclass(frozen=True)
class GroupView:
    """Composition of one process group at one node."""

    group_id: int
    processes: FrozenSet[ProcessId]
    version: int


GroupChangeCallback = Callable[[GroupView], None]


class ProcessGroupService:
    """Per-node process group membership entity.

    Args:
        layer: the node's CAN standard layer.
        membership: the node's site membership protocol — group state is
            slaved to its view and change notifications.
        inconsistent_degree: the model's ``j`` bound, sizing the eager
            diffusion of announcements.
    """

    def __init__(
        self,
        layer: CanStandardLayer,
        membership: MembershipProtocol,
        inconsistent_degree: int = 2,
    ) -> None:
        self._layer = layer
        self._membership = membership
        self._j = inconsistent_degree
        self._groups: Dict[int, Set[ProcessId]] = {}
        self._versions: Dict[int, int] = {}
        self._ndup: Dict[MessageId, int] = {}
        self._next_seq = 0
        self._listeners: List[GroupChangeCallback] = []
        layer.add_data_ind(self._on_announcement, mtype=MessageType.GROUP)
        membership.on_change(self._on_site_change)

    # -- upper-layer interface ---------------------------------------------------

    def on_group_change(self, callback: GroupChangeCallback) -> None:
        """Subscribe to group composition changes (any group)."""
        self._listeners.append(callback)

    def join_group(self, group_id: int, process_id: int) -> None:
        """Announce that local process ``process_id`` joins ``group_id``."""
        self._announce(group_id, process_id, _JOIN)

    def leave_group(self, group_id: int, process_id: int) -> None:
        """Announce that local process ``process_id`` leaves ``group_id``."""
        self._announce(group_id, process_id, _LEAVE)

    def group_view(self, group_id: int) -> GroupView:
        """The current composition of ``group_id`` at this node."""
        self._check_group(group_id)
        return GroupView(
            group_id=group_id,
            processes=frozenset(self._groups.get(group_id, set())),
            version=self._versions.get(group_id, 0),
        )

    @property
    def known_groups(self) -> List[int]:
        """Identifiers of every non-empty group, sorted."""
        return sorted(g for g, members in self._groups.items() if members)

    # -- announcements ------------------------------------------------------------

    def _check_group(self, group_id: int) -> None:
        if not 0 <= group_id <= MAX_GROUP_ID:
            raise ConfigurationError(f"group id out of range: {group_id}")

    def _announce(self, group_id: int, process_id: int, action: int) -> None:
        self._check_group(group_id)
        if not 0 <= process_id <= MAX_PROCESS_ID:
            raise ConfigurationError(f"process id out of range: {process_id}")
        if not self._membership.is_member:
            raise ConfigurationError(
                "only processes on full-member sites may change groups"
            )
        mid = MessageId(
            MessageType.GROUP,
            node=self._layer.node_id,
            ref=self._next_seq,
        )
        self._next_seq = (self._next_seq + 1) % 65536
        self._layer.data_req(mid, bytes([group_id, process_id, action]))

    def _on_announcement(self, mid: MessageId, data: bytes) -> None:
        count = self._ndup.get(mid, 0) + 1
        self._ndup[mid] = count
        if count > 1:
            if count > self._j:
                self._layer.abort_req(mid)
            return
        # First copy: eager diffusion so every correct node sees it even if
        # the announcing site dies behind an inconsistent omission.
        if mid.node != self._layer.node_id and not self._layer.has_pending(mid):
            self._layer.data_req(mid, data)
        if len(data) < 3:
            return  # malformed announcement
        group_id, pid, action = data[0], data[1], data[2]
        process = (mid.node, pid)
        members = self._groups.setdefault(group_id, set())
        if action == _JOIN:
            if process in members:
                return
            members.add(process)
        else:
            if process not in members:
                return
            members.discard(process)
        self._bump(group_id)

    # -- site membership integration ------------------------------------------------

    def _on_site_change(self, change: MembershipChange) -> None:
        """Drop every process hosted by a site that left the active set.

        Both failed sites (``change.failed``) and voluntary leavers (absent
        from ``change.active``) take their processes with them; the
        consistency of the site-level notification is what keeps group
        views consistent across nodes.
        """
        active = set(change.active)
        for group_id, members in list(self._groups.items()):
            dropped = {proc for proc in members if proc[0] not in active}
            if dropped:
                members.difference_update(dropped)
                self._bump(group_id)

    def _bump(self, group_id: int) -> None:
        self._versions[group_id] = self._versions.get(group_id, 0) + 1
        view = self.group_view(group_id)
        for listener in list(self._listeners):
            listener(view)
