"""SWIM-style membership over the CAN standard layer.

The rival backend: periodic **heartbeat counters**, **incarnation
numbers** and a **suspicion sub-protocol** in the style of SWIM ("SWIM:
Scalable Weakly-consistent Infection-style Process Group Membership",
PAPERS.md), adapted to a broadcast bus — on CAN every message reaches
every node, so the gossip/piggyback machinery degenerates into plain
broadcasts and what remains is the failure-detection core:

* every ``probe_period`` a member broadcasts a heartbeat carrying its
  incarnation and a monotonically increasing counter;
* a member silent for ``fail_after`` is *suspected*; the suspicion is
  broadcast, and the suspect — hearing its own suspicion — refutes it by
  bumping its incarnation and broadcasting the new one;
* a suspicion not refuted (or cleared by direct activity) within
  ``suspicion_timeout`` is *confirmed*: the member is removed from the
  view and the removal broadcast, keyed by the dead incarnation so stale
  heartbeats cannot resurrect it. A live node hearing itself confirmed
  failed rejoins with a higher incarnation (``auto_rejoin``) — the flap
  is the protocol's documented weak-consistency cost.

Contrasts with CANELy worth measuring (the ``repro compare`` report):
heartbeats are unconditional data frames (CANELy suppresses life-signs
under application traffic, and its control messages are clusterable
remote frames), view changes install immediately and independently at
every node (CANELy aligns them on agreed cycle boundaries), and nothing
here serializes a view onto the wire — which is why SWIM populations may
exceed the 64-node CAN-data-field bound that binds CANELy.

All state transitions are driven by received frames and deterministic
timers; like the CANELy stack, the protocol draws no randomness, so
same-seed runs are bit-identical.

Where the silence clock lives: on a broadcast bus "*k* has not heard *s* for
``fail_after``" is the per-sender deadline the simulation's one
:class:`~repro.sim.timers.SurveillanceTable` keeps for CANELy's failure
detector, so it is a row of that table too — one deadline per group of
members that heard the same frame from *s*. The receive path has the
detector's two entry widths: :meth:`SwimProtocol._on_swim` is the
one-receiver entry and the only statement of the protocol;
:class:`SwimHearing`, its collective form, answers a frame for all receivers
at once when it can show that they would all do the same: a heartbeat from
a member all hold alive, an echoed SUSPECT or CONFIRM that is moot at each,
or a frame that admits its sender at each (a join). Heard node by node are
the first SUSPECT or CONFIRM about a subject, each sender's first frame
after a leave or a rejoin, and every heartbeat once a rejoined node's
second crash has raised its accusers' recorded incarnations (a known
defect, pinned by a strict xfail in ``tests/test_swim.py``); such a pass
leaves the table settled on the receivers' clocks.

Trace/metric surface shared with CANELy: ``msh.view`` / ``msh.change``
records and the ``msh.change_notifications`` counter (analysis reads
these backend-neutrally), plus ``swim.*`` records and counters for the
protocol's own events.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.can.driver import CanStandardLayer
from repro.can.identifiers import MessageId, MessageType
from repro.core.views import MembershipChange, MembershipView
from repro.sim.kernel import Simulator
from repro.sim.timers import Alarm, SurveillanceTable, TimerService
from repro.swim.config import SwimConfig
from repro.util.sets import NodeSet

ChangeCallback = Callable[[MembershipChange], None]

# Message kinds, packed into bits 8-15 of the MID ref (bits 0-7 carry the
# subject node id). Payload: 2 bytes little-endian incarnation; heartbeats
# append 2 bytes of counter, which no receiver reads.
HEARTBEAT = 0
JOIN = 1
LEAVE = 2
SUSPECT = 3
REFUTE = 4
CONFIRM = 5

ALIVE = "alive"
SUSPECTED = "suspect"


def _decode(mid: MessageId, data: bytes):
    """``(kind, subject, incarnation)`` of a SWIM frame."""
    ref = mid.ref
    return (ref >> 8) & 0xFF, ref & 0xFF, int.from_bytes(data[:2], "little")


def _without(items: tuple, item) -> tuple:
    """``items`` without ``item``, or ``items`` itself when it is not there."""
    try:
        index = items.index(item)
    except ValueError:
        return items
    return items[:index] + items[index + 1:]


class _Member:
    """Surveillance state for one remote member (its silence clock is the
    node's watch on it in the shared surveillance table)."""

    __slots__ = ("incarnation", "status", "suspected_inc", "susp_alarm")

    def __init__(self, incarnation: int = 0) -> None:
        self.incarnation = incarnation
        self.status = ALIVE
        self.suspected_inc = -1
        self.susp_alarm: Optional[Alarm] = None


class SwimHearing:
    """Every SWIM receiver of one simulation hearing a frame, at once.

    The collective form of :meth:`SwimProtocol._on_swim` (:mod:`repro.can.driver`):
    called once per SWIM frame with the ``_on_swim`` of every receiver.
    Calling each in turn is always right, and is what a *miss* does. But a
    frame that only restarts the sender's silence clock at every receiver is
    one :meth:`SurveillanceTable.heard`. Per sender and per tuple of
    listeners (a bridged frame reaches another tuple on each segment), a memo
    ``(listeners, incarnation, clocks)`` asserts that every listener either
    hears the sender to no effect (not joined, or the sender itself) or holds
    it ALIVE at ``incarnation`` under a watch — ``clocks`` are those
    listeners' :meth:`SwimProtocol._heard`. That answers a heartbeat at
    ``incarnation``. Per subject and tuple, ``(listeners, kind)`` asserts
    that a ``kind`` frame about the subject is moot at every listener
    (:meth:`SwimProtocol._moot`; a moot CONFIRM implies a moot SUSPECT). With
    the sender's memo that answers the echoes of one crash, unless the
    payload, the subject's incarnation, exceeds ``incarnation``: ``_on_swim``
    raises the sender's recorded incarnation to it.

    A frame that admits its sender at every listener that has joined (a
    JOIN, or the first word from a node nobody holds) is answered at once
    too: one pass of the admission body (:meth:`SwimProtocol._admit`) over
    the receivers, which settles the table and forms the memo as a miss's
    pass does.

    This object decides only *whether* everyone may be answered at once;
    what the answer is stays with the protocol: ``_on_swim``, or the
    admission body ``_on_swim`` shares. A memo is formed by looking,
    after a miss, which also settles the table on ``clocks``
    (:meth:`SurveillanceTable.settle`). It is dropped (:meth:`forget`) by
    whatever takes a listener *out of* the state it asserts: a member
    suspected, removed, at a new incarnation, admitted or cleared of a
    suspicion drops the memos about it, a node joining all. A node halting
    takes only itself out (:meth:`halted`): every memo goes on without its
    listener and clock, and a lookup accepts a tuple equal to the memo's —
    the bus's next one, once a crash took the node off it.
    """

    #: Memos kept per node: one per segment, and per recent set of the down.
    _MEMOS_PER_NODE = 4

    def __init__(self, sim: Simulator) -> None:
        self._table = SurveillanceTable.of(sim)
        #: sender -> [(listeners, incarnation, clocks), ...]
        self._memos: Dict[int, list] = {}
        #: subject -> [(listeners, kind), ...]
        self._moot: Dict[int, list] = {}

    def __call__(self, mid: MessageId, data: bytes, listeners: tuple) -> None:
        sender = mid.node
        kind, subject, incarnation = _decode(mid, data)
        memo = self._recall(self._memos, sender, listeners)
        if memo is not None:
            if kind == HEARTBEAT:
                hit = incarnation == memo[1]
            elif kind == SUSPECT or kind == CONFIRM:
                moot = self._recall(self._moot, subject, listeners, kind)
                if moot is None and kind == SUSPECT:
                    moot = self._recall(self._moot, subject, listeners, CONFIRM)
                hit = moot is not None and (
                    memo[1] is None or incarnation <= memo[1]
                )
            else:
                hit = False
            if hit:
                self._table.heard(mid, memo[2])
                return
        if (kind == HEARTBEAT or kind == JOIN or kind == REFUTE) and self._admit_all(
            sender, incarnation, listeners
        ):
            return
        self._settle(sender, listeners, self._table.each(listeners, mid, data))
        if (kind == SUSPECT or kind == CONFIRM) and all(
            listener.__self__._moot(kind, subject) for listener in listeners
        ):
            self._remember(self._moot, subject, (listeners, kind))

    def forget(self, node: Optional[int] = None) -> None:
        """Drop the memos about ``node`` (default: about everybody)."""
        if node is None:
            self._memos.clear()
            self._moot.clear()
        else:
            self._memos.pop(node, None)
            self._moot.pop(node, None)

    def halted(self, protocol: "SwimProtocol") -> None:
        """``protocol``'s node halted: what the memos assert of the other
        listeners still holds, so each goes on without its listener and
        clock. A crash takes the listener off the bus too, and the memos
        meet the bus's next tuple, equal to theirs; a node that halts and
        stays on the bus (a leave) is a listener the memos no longer name,
        and its next frames miss."""
        listener, clock = protocol._on_swim, protocol._heard
        for memos in self._memos.values():
            memos[:] = [
                (_without(listeners, listener), incarnation, _without(clocks, clock))
                for listeners, incarnation, clocks in memos
            ]
        for memos in self._moot.values():
            memos[:] = [
                (_without(listeners, listener), kind) for listeners, kind in memos
            ]

    @staticmethod
    def _recall(
        memos: dict, node: int, listeners: tuple, kind: Optional[int] = None
    ) -> Optional[tuple]:
        """The memo about ``node`` for ``listeners`` (of ``kind``, in the
        moot memos), if any; one kept for an equal tuple is re-keyed to
        ``listeners``, the tuple the bus passes from now on."""
        kept = memos.get(node)
        if kept:
            for index, memo in enumerate(kept):
                if kind is not None and memo[1] != kind:
                    continue
                if memo[0] is listeners or memo[0] == listeners:
                    if memo[0] is not listeners:
                        kept[index] = memo = (listeners,) + memo[1:]
                    return memo
        return None

    def _admit_all(self, sender: int, incarnation: int, listeners: tuple) -> bool:
        """Admit ``sender`` at every listener at once, if each joined one
        but the sender would (:meth:`SwimProtocol._admits`): one pass of
        the admission body over those, all ``_on_swim`` does at each of
        them (the sender is nobody's member yet); the sender and the
        listeners that have not joined hear it to no effect."""
        admitting = []
        for listener in listeners:
            protocol = listener.__self__
            if not protocol._joined or protocol._local == sender:
                continue
            if sender in protocol._members or not protocol._admits(
                sender, incarnation
            ):
                return False
            admitting.append(protocol._admit)
        if not admitting:
            return False
        self.forget(sender)
        self._settle(
            sender, listeners, self._table.each(tuple(admitting), sender, incarnation)
        )
        return True

    def _settle(self, sender: int, listeners: tuple, joined: dict) -> None:
        """Memoize that ``listeners`` agree on ``sender``, if they do, and
        settle the table on the pass ``joined`` recorded."""
        clocks = []
        incarnation = None
        for listener in listeners:
            protocol = listener.__self__
            if not protocol._joined or protocol._local == sender:
                continue
            member = protocol._members.get(sender)
            if member is None or member.status != ALIVE:
                return
            if incarnation is None:
                incarnation = member.incarnation
            elif member.incarnation != incarnation:
                return
            clocks.append(protocol._heard)
        clocks = tuple(clocks)
        self._remember(self._memos, sender, (listeners, incarnation, clocks))
        self._table.settle(sender, clocks, joined)

    def _remember(self, memos: dict, node: int, memo: tuple) -> None:
        """Keep ``memo`` about ``node``, in place of one for its listeners."""
        kept = [old for old in memos.get(node, ()) if old[0] is not memo[0]]
        kept.append(memo)
        memos[node] = kept[-self._MEMOS_PER_NODE:]


class SwimProtocol:
    """Per-node SWIM membership entity behind the ``msh-can`` contract."""

    def __init__(
        self,
        layer: CanStandardLayer,
        timers: TimerService,
        sim: Simulator,
        config: SwimConfig,
    ) -> None:
        self._layer = layer
        self._timers = timers
        self._sim = sim
        self._config = config
        self._local = layer.node_id
        self._joined = False
        self._incarnation = 0
        self._counter = 0
        self._round_index = 0
        self._view = NodeSet.empty(config.capacity)
        self._members: Dict[int, _Member] = {}
        #: node id -> incarnation it was confirmed failed with; only a
        #: strictly higher incarnation readmits it.
        self._dead: Dict[int, int] = {}
        self._hb_alarm: Optional[Alarm] = None
        #: The ``fail_after`` silence clocks, one watch per member.
        self._watcher = timers.watcher(self._on_fail_expire, name="swim.fail")
        self._hearing = sim.shared.get(SwimHearing)
        if self._hearing is None:
            self._hearing = sim.shared[SwimHearing] = SwimHearing(sim)
        # Rebuilt on subscription, as the standard layer keeps its tables: a
        # listener registered mid-notification takes effect from the next one.
        self._listeners: Tuple[ChangeCallback, ...] = ()
        self._no_failure = NodeSet.empty(config.capacity)
        self._trace_record = sim.trace.record
        self._record_row = sim.trace.record_row
        self._spans = sim.spans
        metrics = sim.metrics
        self._inc_heartbeats = metrics.counter("swim.heartbeats").inc
        self._inc_suspects = metrics.counter("swim.suspects").inc
        self._inc_refutes = metrics.counter("swim.refutes").inc
        self._inc_removals = metrics.counter("swim.removals").inc
        self._change_notifications = metrics.counter("msh.change_notifications")
        self.heartbeats_sent = 0
        self.suspicions = 0
        self.refutes = 0
        self.removals = 0
        layer.add_data_ind(
            self._on_swim, mtype=MessageType.SWIM, collective=self._hearing
        )

    # -- msh-can.req / .nty service surface ------------------------------------

    def on_change(self, callback: ChangeCallback) -> None:
        """Register a ``msh-can.nty`` membership change listener."""
        self._listeners += (callback,)

    def view(self) -> MembershipView:
        """The current membership view at this node."""
        return MembershipView(
            members=self._view, round_index=self._round_index, time=self._sim.now
        )

    @property
    def is_member(self) -> bool:
        """True while the local node is in its own view."""
        return self._local in self._view

    def join(self) -> None:
        """Enter the membership: announce and start heartbeating.

        Every join bumps the incarnation, so a rejoining node always
        outranks whatever incarnation it was last confirmed failed with.
        """
        if self._joined and self._local in self._view:
            return
        self._joined = True
        self._hearing.forget()
        self._incarnation += 1
        if self._local not in self._view:
            self._view = self._view.add(self._local)
            self._install(self._no_failure)
        self._broadcast(JOIN, self._local, self._incarnation)
        self._arm_heartbeat()

    def leave(self) -> None:
        """Withdraw: announce the departure; the echo retires the node."""
        if self._local not in self._view:
            return
        self._broadcast(LEAVE, self._local, self._incarnation)

    def halt(self) -> None:
        """Cancel every timer without touching state (node crash)."""
        timers = self._timers
        timers.cancel_alarm(self._hb_alarm)
        self._hb_alarm = None
        self._watcher.clear()
        self._hearing.halted(self)
        for member in self._members.values():
            timers.cancel_alarm(member.susp_alarm)
            member.susp_alarm = None

    def reset(self) -> None:
        """Forget all membership state (reboot); idempotent.

        The incarnation survives — a rebooted node must be able to
        outrank the incarnation its peers confirmed it failed with.
        """
        self.halt()
        self._joined = False
        self._view = NodeSet.empty(self._config.capacity)
        self._members.clear()
        self._dead.clear()
        self._counter = 0

    # -- wire encoding ----------------------------------------------------------

    def _broadcast(self, kind: int, subject: int, incarnation: int,
                   counter: Optional[int] = None) -> None:
        payload = (incarnation & 0xFFFF).to_bytes(2, "little")
        if counter is not None:
            payload += (counter & 0xFFFF).to_bytes(2, "little")
        mid = MessageId(
            MessageType.SWIM, node=self._local, ref=(kind << 8) | subject
        )
        self._layer.data_req(mid, payload)

    # -- timers ------------------------------------------------------------------

    def _arm_heartbeat(self) -> None:
        self._timers.cancel_alarm(self._hb_alarm)
        self._hb_alarm = self._timers.start_alarm(
            self._config.probe_period, self._on_heartbeat, name="swim.probe"
        )

    def _on_heartbeat(self) -> None:
        if not self._joined:
            return
        self._counter += 1
        self.heartbeats_sent += 1
        self._inc_heartbeats()
        self._broadcast(
            HEARTBEAT, self._local, self._incarnation, self._counter
        )
        self._hb_alarm = self._timers.start_alarm(
            self._config.probe_period, self._on_heartbeat, name="swim.probe"
        )

    def _on_fail_expire(self, node_id: int) -> None:
        member = self._members.get(node_id)
        if member is None or member.status != ALIVE:
            return
        self.suspicions += 1
        self._inc_suspects()
        self._note("swim.suspect", suspect=node_id)
        self._broadcast(SUSPECT, node_id, member.incarnation)
        self._suspect(node_id, member, member.incarnation)

    def _suspect(self, node_id: int, member: _Member, incarnation: int) -> None:
        """ALIVE -> SUSPECTED at ``incarnation``: confirmed unless refuted
        (or cleared by direct activity) within ``suspicion_timeout``."""
        member.status = SUSPECTED
        member.suspected_inc = incarnation
        self._hearing.forget(node_id)
        member.susp_alarm = alarm = self._timers.start_alarm(
            self._config.suspicion_timeout,
            partial(self._on_suspicion_expire, node_id),
            name="swim.suspicion",
            tag=node_id,
        )
        # ``from_canely`` makes suspicion_timeout == fail_after: on a SUSPECT
        # frame this alarm is due at the very tick of the sender's silence
        # clock, which the next receivers are about to restart.
        self._watcher.fence(alarm.deadline)

    def _on_suspicion_expire(self, node_id: int) -> None:
        member = self._members.get(node_id)
        if member is None or member.status != SUSPECTED:
            return
        member.susp_alarm = None
        self._broadcast(CONFIRM, node_id, member.suspected_inc)
        self._remove(node_id, member.suspected_inc, failed=True)

    # -- receive path -------------------------------------------------------------

    def _heard(self, mid: MessageId) -> None:
        # All a heartbeat from a member held ALIVE at its incarnation does
        # here; `SwimHearing` has the table do it for everybody at once.
        self._watcher.heard(mid.node)

    def _on_swim(self, mid: MessageId, data: bytes) -> None:
        if not self._joined:
            return
        sender = mid.node
        kind, subject, incarnation = _decode(mid, data)
        # Any SWIM frame from a live member is direct evidence of life:
        # restart its silence clock and clear a pending suspicion.
        if sender != self._local:
            member = self._members.get(sender)
            if member is not None:
                if incarnation > member.incarnation:
                    member.incarnation = incarnation
                    self._hearing.forget(sender)
                if member.status == SUSPECTED:
                    member.status = ALIVE
                    member.suspected_inc = -1
                    self._hearing.forget(sender)
                    self._timers.cancel_alarm(member.susp_alarm)
                    member.susp_alarm = None
                self._watcher.watch(sender, self._config.fail_after)

        if kind == HEARTBEAT or kind == JOIN or kind == REFUTE:
            self._consider_admission(sender, incarnation)
        elif kind == LEAVE:
            self._on_leave(subject)
        elif kind == SUSPECT:
            self._on_suspect(subject, incarnation)
        elif kind == CONFIRM:
            self._on_confirm(subject, incarnation)

    def _consider_admission(self, node_id: int, incarnation: int) -> None:
        if self._admits(node_id, incarnation):
            self._hearing.forget(node_id)
            self._admit(node_id, incarnation)

    def _admits(self, node_id: int, incarnation: int) -> bool:
        """Whether a HEARTBEAT, JOIN or REFUTE from ``node_id`` at
        ``incarnation`` admits it here."""
        if node_id == self._local or node_id in self._view:
            return False
        if node_id >= self._config.capacity:
            return False
        dead_inc = self._dead.get(node_id)
        # Not stale traffic from a confirmed-dead incarnation.
        return dead_inc is None or incarnation > dead_inc

    def _admit(self, node_id: int, incarnation: int) -> None:
        """Admit ``node_id`` at ``incarnation``: member, view, watch and the
        new view installed."""
        self._dead.pop(node_id, None)
        self._members[node_id] = _Member(incarnation)
        self._view = self._view.add(node_id)
        self._watcher.watch(node_id, self._config.fail_after)
        self._install(self._no_failure)

    def _on_leave(self, subject: int) -> None:
        if subject == self._local:
            # Own departure (or the echo of it) completes the leave: the
            # node stops participating entirely.
            self._remove_self()
            self.halt()
            self._joined = False
            return
        member = self._members.get(subject)
        if member is not None:
            self._remove(subject, member.incarnation, failed=False)

    def _moot(self, kind: int, subject: int) -> bool:
        """Whether a SUSPECT or CONFIRM (``kind``) frame about ``subject``
        does nothing here beyond restarting its sender's silence clock:
        this node has not joined, or ``subject`` is another node that it
        holds absent — or, for a SUSPECT, already suspected. Only a join, a
        halt, or ``subject`` admitted or cleared of its suspicion here can
        end that; each tells the hearing (:meth:`SwimHearing.forget`)."""
        if not self._joined:
            return True
        if subject == self._local:
            return False
        member = self._members.get(subject)
        return member is None or (kind == SUSPECT and member.status == SUSPECTED)

    def _on_suspect(self, subject: int, incarnation: int) -> None:
        if subject == self._local:
            # Somebody suspects us: refute with a fresh incarnation.
            self._incarnation = max(self._incarnation, incarnation) + 1
            self.refutes += 1
            self._inc_refutes()
            self._trace_record(
                self._sim.now, "swim.refute", node=self._local,
                incarnation=self._incarnation,
            )
            self._broadcast(REFUTE, self._local, self._incarnation)
            return
        member = self._members.get(subject)
        if (
            member is not None
            and member.status == ALIVE
            and incarnation >= member.incarnation
        ):
            self._watcher.unwatch(subject)
            self._suspect(subject, member, incarnation)

    def _on_confirm(self, subject: int, incarnation: int) -> None:
        if subject == self._local:
            # Confirmed failed while alive — the classic SWIM mistake.
            self._incarnation = max(self._incarnation, incarnation) + 1
            self._remove_self()
            if self._config.auto_rejoin:
                self._view = self._view.add(self._local)
                self._install(self._no_failure)
                self._broadcast(JOIN, self._local, self._incarnation)
            else:
                self.halt()
                self._joined = False
            return
        member = self._members.get(subject)
        if member is not None and incarnation >= member.incarnation:
            self._remove(subject, incarnation, failed=True)

    # -- view maintenance -----------------------------------------------------------

    def _remove(self, node_id: int, incarnation: int, failed: bool) -> None:
        member = self._members.pop(node_id, None)
        if member is not None:
            self._watcher.unwatch(node_id)
            self._hearing.forget(node_id)
            self._timers.cancel_alarm(member.susp_alarm)
        if failed:
            prior = self._dead.get(node_id)
            if prior is None or incarnation > prior:
                self._dead[node_id] = incarnation
            self.removals += 1
            self._inc_removals()
            self._note("swim.confirm", failed=node_id)
        if node_id in self._view:
            self._view = self._view.remove(node_id)
            self._install(
                NodeSet.single(node_id, self._config.capacity)
                if failed
                else self._no_failure
            )

    def _note(self, name: str, **attrs: int) -> None:
        """A protocol step of this node, as a trace row and a span instant."""
        self._trace_record(self._sim.now, name, node=self._local, **attrs)
        if self._spans.enabled:
            self._spans.instant(name, "swim", node=self._local, **attrs)

    def _remove_self(self) -> None:
        if self._local in self._view:
            self._view = self._view.remove(self._local)
            self._install(NodeSet.single(self._local, self._config.capacity))

    def _install(self, failed: NodeSet) -> None:
        """Install ``self._view`` as the next view; notify the change."""
        self._round_index += 1
        now = self._sim.now
        view = self._view
        local = self._local
        spans = self._spans
        record_row = self._record_row
        record_row(
            now, "msh.view", local, {"members": view, "round_index": self._round_index}
        )
        if spans.enabled:
            spans.instant(
                "msh.view", "msh", node=local, members=len(view),
                round_index=self._round_index,
            )
        self._change_notifications.value += 1
        record_row(now, "msh.change", local, {"active": view, "failed": failed})
        if spans.enabled:
            spans.instant(
                "msh.change", "msh", node=local, active=len(view),
                failed=sorted(failed),
            )
        if self._listeners:
            change = MembershipChange(
                active=view, failed=failed, time=now, local_node=local
            )
            for listener in self._listeners:
                listener(change)
