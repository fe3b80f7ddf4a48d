"""Site membership protocol — paper Fig. 9.

Maintains a consistent site membership view ``Vs`` at every correct node:

* **Join/leave** requests travel as remote frames and accumulate, at every
  node alike, in the joining (``Vj``) / leaving (``Vl``) sets during a
  membership cycle.
* When the **membership cycle timer** (period ``Tm``) expires and requests
  are pending, the RHA micro-protocol establishes an agreed reception
  history vector; with no pending request the RHA execution is skipped to
  save bandwidth and the view is refreshed locally.
* **Node crash failures** signalled by the companion failure detection
  service are notified immediately and folded into the view at the next
  cycle boundary (``Fs``).
* A node **joining an empty system** bootstraps when its join-wait timer
  (``Tjoin_wait``, much longer than ``Tm``) expires with no full member
  heard: it temporarily adopts ``Vj`` as its view and starts RHA itself.

Pseudocode correspondence: ``i00-i01`` initialization, ``a00-a18`` the
auxiliary functions (``msh-view-proc``, ``msh-data-proc``,
``msh-chg-nty``), ``s00-s34`` the event clauses.

Two details the paper omits "for simplicity of exposition" are implemented
explicitly and documented here:

* when the *local* node enters the view, failure detection is started for
  **every** member (the pseudocode's a04-a05 only covers the newly joined
  nodes, which is sufficient at nodes that were already members);
* repeated failure signs for a node already notified in this cycle are not
  re-notified.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.can.driver import CanStandardLayer
from repro.can.identifiers import MessageId, MessageType
from repro.core.config import CanelyConfig
from repro.core.failure_detector import FailureDetector
from repro.core.fda import FdaProtocol
from repro.core.rha import RhaProtocol
from repro.core.state import MembershipState
from repro.core.views import MembershipChange, MembershipView
from repro.errors import MembershipError
from repro.sim.kernel import Simulator
from repro.sim.timers import Alarm, TimerService
from repro.util.sets import NodeSet

ChangeCallback = Callable[[MembershipChange], None]


class MembershipProtocol:
    """Per-node site membership protocol entity."""

    def __init__(
        self,
        layer: CanStandardLayer,
        timers: TimerService,
        sim: Simulator,
        config: CanelyConfig,
        state: MembershipState,
        rha: RhaProtocol,
        detector: FailureDetector,
        fda: FdaProtocol,
    ) -> None:
        self._layer = layer
        self._timers = timers
        self._sim = sim
        self._config = config
        self._state = state
        self._rha = rha
        self._detector = detector
        self._fda = fda
        self._tid: Optional[Alarm] = None  # i00
        # Which timeout the alarm carries: the bootstrap fallback of s18-s19
        # only applies to the *join-wait* timeout (footnote 9), never to a
        # regular membership cycle expiring at a passive non-member.
        self._timer_kind = "cycle"
        self._listeners: List[ChangeCallback] = []
        self._round_index = 0
        self._last_view_time: Optional[int] = None
        self._was_member = False
        self._has_left = False
        self._removed_at: Optional[int] = None
        self._spans = sim.spans
        # Bound metric methods resolved once — view installs run per cycle.
        metrics = sim.metrics
        self._inc_views_installed = metrics.counter("msh.views_installed").inc
        self._inc_failures_folded = metrics.counter("msh.failures_folded").inc
        self._observe_cycle_ticks = metrics.histogram("msh.cycle_ticks").observe
        self._inc_change_notifications = metrics.counter(
            "msh.change_notifications"
        ).inc
        layer.add_rtr_ind(self._on_join_ind, mtype=MessageType.JOIN)  # s04
        layer.add_rtr_ind(self._on_leave_ind, mtype=MessageType.LEAVE)  # s10
        detector.on_failure(self._on_failure)  # s13
        rha.on_init(self._on_rha_init)  # s17
        rha.on_end(self._on_rha_end)  # s28

    # -- upper-layer interface (Fig. 5) ------------------------------------------

    def on_change(self, callback: ChangeCallback) -> None:
        """Register a ``msh-can.nty`` membership change listener."""
        self._listeners.append(callback)

    def view(self) -> MembershipView:
        """``msh-can.req(Get Membership View)``: the current view."""
        return MembershipView(
            members=self._state.view,
            round_index=self._round_index,
            time=self._sim.now,
        )

    @property
    def is_member(self) -> bool:
        """True while the local node is a full member of the view."""
        return self._layer.node_id in self._state.view

    def join(self) -> None:
        """``msh-can.req(JOIN)``: ask to enter the site membership view."""
        local = self._layer.node_id
        if local in self._state.view:  # s00 guard
            return
        cooldown = self._config.reintegration_cooldown
        if (
            cooldown
            and self._removed_at is not None
            and self._sim.now - self._removed_at < cooldown
        ):
            # Section 6.4: reintegration attempts inside the cooldown
            # violate the protocol's operating assumption.
            raise MembershipError(
                f"node {local} must wait "
                f"{cooldown - (self._sim.now - self._removed_at)} ticks "
                "before reintegrating"
            )
        self._has_left = False
        if self._timer_kind != "join" or not self._timers.is_pending(self._tid):
            # s01: maximum join wait delay (footnote 9: much longer than Tm).
            self._arm_timer(self._config.tjoin_wait, kind="join")
        self._layer.rtr_req(MessageId(MessageType.JOIN, node=local))  # s02

    def leave(self) -> None:
        """``msh-can.req(LEAVE)``: ask to be withdrawn from the view."""
        local = self._layer.node_id
        if local not in self._state.view:  # s07 guard
            return
        self._layer.rtr_req(MessageId(MessageType.LEAVE, node=local))  # s08

    def halt(self) -> None:
        """Cancel the cycle timer without touching state (node crash)."""
        self._timers.cancel_alarm(self._tid)
        self._tid = None

    def reset(self) -> None:
        """Forget all membership state and cancel the cycle timer (reboot)."""
        self._timers.cancel_alarm(self._tid)
        self._tid = None
        self._timer_kind = "cycle"
        empty = NodeSet.empty(self._config.capacity)
        self._state.view = empty
        self._state.joining = empty
        self._state.joining_aux = empty
        self._state.leaving = empty
        self._state.failed = empty
        self._was_member = False
        self._has_left = False
        self._last_view_time = None
        # A rebooted node has no memory of its removal; honouring the
        # cooldown across reboots is the operator's responsibility.
        self._removed_at = None

    # -- request indications -------------------------------------------------------

    def _in_range(self, node_id: int) -> bool:
        # Garbage identifiers (e.g. from a babbling node) must not be able
        # to corrupt the protocol state.
        return 0 <= node_id < self._config.capacity

    def _on_join_ind(self, mid: MessageId) -> None:
        if not self._in_range(mid.node):
            return
        self._state.joining = self._state.joining.add(mid.node)  # s05

    def _on_leave_ind(self, mid: MessageId) -> None:
        if not self._in_range(mid.node):
            return
        self._state.leaving = self._state.leaving.add(mid.node)  # s11

    # -- node failure notifications (s13-s16) ----------------------------------------

    def _on_failure(self, node_id: int) -> None:
        if not self._in_range(node_id):
            return
        if node_id in self._state.failed:
            return  # already notified in this cycle
        relevant = node_id in self._state.view or node_id in self._state.joining
        self._state.failed = self._state.failed.add(node_id)  # s14
        if relevant:
            # s15: immediate membership change notification for the crash.
            self._change_notify(
                self._state.view - self._state.failed,
                NodeSet.single(node_id, self._config.capacity),
            )

    # -- cycle boundary (s17-s27) -------------------------------------------------------

    def _on_rha_init(self) -> None:
        self._cycle_boundary(timer_expired=False)

    def _on_timer_expire(self) -> None:
        expired_kind = self._timer_kind
        self._tid = None
        self._cycle_boundary(timer_expired=True, expired_kind=expired_kind)

    def _cycle_boundary(
        self, timer_expired: bool, expired_kind: str = "cycle"
    ) -> None:
        local = self._layer.node_id
        if (
            timer_expired
            and expired_kind == "join"
            and local not in self._state.view
        ):  # s18
            # s19: the join-wait delay elapsed with no full member heard —
            # bootstrap the view from the joiners.
            self._state.view = self._state.joining
        # Cycle boundary housekeeping: let the FDA retire counter pairs
        # whose failure this layer never got to fold into a view.
        self._fda.advance_cycle()
        self._arm_timer(self._config.tm)  # s21: membership cycle period
        if self._state.joining or self._state.leaving:  # s22
            self._rha.request()  # s23
        else:
            self._view_proc(self._state.view)  # s25

    def _arm_timer(self, duration: int, kind: str = "cycle") -> None:
        self._timers.cancel_alarm(self._tid)
        self._timer_kind = kind
        self._tid = self._timers.start_alarm(
            duration, self._on_timer_expire, name="msh." + kind
        )

    # -- RHA termination (s28-s34) ---------------------------------------------------------

    def _on_rha_end(self, rhv: NodeSet) -> None:
        self._view_proc(rhv)  # s29
        joined = self._state.joining & self._state.view
        left = self._state.leaving & self._state.view.complement()
        if joined or left:  # s30
            # s31: membership change after a node join/leave operation.
            self._change_notify(
                self._state.view, NodeSet.empty(self._config.capacity)
            )
        self._data_proc()  # s33

    # -- msh-view-proc (a00-a02) ------------------------------------------------------------

    def _view_proc(self, proposed: NodeSet) -> None:
        state = self._state
        removed_failed = state.failed
        state.view = proposed - state.failed  # a01
        state.failed = NodeSet.empty(self._config.capacity)
        self._round_index += 1
        for node_id in removed_failed:
            # The failure was folded into a view: retire the FDA counters so
            # a (much later) reintegration of the identifier works afresh.
            self._fda.reset(node_id)
        self._inc_views_installed()
        if removed_failed:
            self._inc_failures_folded(len(removed_failed))
        if self._last_view_time is not None:
            self._observe_cycle_ticks(self._sim.now - self._last_view_time)
        self._last_view_time = self._sim.now
        self._sim.trace.record(
            self._sim.now,
            "msh.view",
            node=self._layer.node_id,
            members=state.view,
            round_index=self._round_index,
        )
        if self._spans.enabled:
            self._spans.instant(
                "msh.view",
                "msh",
                node=self._layer.node_id,
                members=len(state.view),
                failed=sorted(removed_failed),
                round_index=self._round_index,
            )

    # -- msh-data-proc (a03-a09) --------------------------------------------------------------

    def _data_proc(self) -> None:
        state = self._state
        local = self._layer.node_id
        is_member = local in state.view

        if is_member and not self._was_member:
            # Omitted detail (see module docstring): a node that just became
            # a member starts surveillance of *every* member, itself included
            # (its own timer drives the explicit life-sign heartbeat).
            for node_id in state.view:
                self._detector.start(node_id)
        elif is_member:
            for node_id in state.joining & state.view:  # a04
                self._detector.start(node_id)  # a05

        # a06: retire join requests — immediately when satisfied, within two
        # membership cycles otherwise (the auxiliary set V'j, footnote 10).
        state.joining = (state.joining - state.view) - state.joining_aux
        state.joining_aux = state.joining

        for node_id in state.leaving & state.view.complement():  # a07
            self._detector.stop(node_id)  # a08
        state.leaving = state.leaving & state.view  # a09

        if not is_member and self._was_member:
            # The local node is out of the view (left or declared failed):
            # stop every surveillance timer and start the reintegration
            # cooldown clock.
            for node_id in list(self._detector.monitored_nodes):
                self._detector.stop(node_id)
            self._removed_at = self._sim.now
        self._was_member = is_member

    # -- msh-chg-nty (a10-a18) ---------------------------------------------------------------

    def _change_notify(self, active: NodeSet, failed: NodeSet) -> None:
        local = self._layer.node_id
        change = MembershipChange(
            active=active,
            failed=failed,
            time=self._sim.now,
            local_node=local,
        )
        if local in self._state.view:  # a11
            self._deliver(change)  # a12: full-member notification
        elif local in self._state.leaving and not self._has_left:  # a13
            # a14-a15: the leaving node learns its withdrawal succeeded.
            self._timers.cancel_alarm(self._tid)
            self._tid = None
            self._has_left = True
            self._deliver(
                MembershipChange(
                    active=self._state.view,
                    failed=NodeSet.single(local, self._config.capacity),
                    time=self._sim.now,
                    local_node=local,
                )
            )

    def _deliver(self, change: MembershipChange) -> None:
        self._inc_change_notifications()
        self._sim.trace.record(
            change.time,
            "msh.change",
            node=change.local_node,
            active=change.active,
            failed=change.failed,
        )
        if self._spans.enabled:
            self._spans.instant(
                "msh.change",
                "msh",
                node=change.local_node,
                active=len(change.active),
                failed=sorted(change.failed),
            )
        for listener in list(self._listeners):
            listener(change)
