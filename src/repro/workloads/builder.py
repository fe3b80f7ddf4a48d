"""The fluent scenario-construction API.

:class:`ScenarioBuilder` is the one chainable scenario-scripting surface,
reachable from any network as ``net.scenario()``::

    net = CanelyNetwork(node_count=8)
    (net.scenario(seed=7)
        .bootstrap()
        .crash(3, at=ms(50))
        .omit(frame=FrameMatch(mtype="FDA"), inconsistent=True, accepting=[2])
        .run_until_settled())

Builder calls execute *eagerly*, in order: ``bootstrap()`` drives the
cold-start to convergence right away, ``crash``/``join``/``leave`` schedule
their action ``at`` ticks after the current simulation instant, ``omit``
arms the network's :class:`~repro.can.errormodel.FaultInjector`, and the
``run_*`` methods advance the clock.

The builder is also the run's one *harness*: as it schedules it records the
scripted intent the trace cannot carry (initial members, window start,
crash/leave/join instants), and it offers each readout of the finished run
once, on demand — ``qos()``, ``detection_latencies()``, ``final_state()``.
The one scenario interpreter (:mod:`repro.workloads.scenario`) scripts
every plain-data :class:`~repro.workloads.scenario.Scenario` through it:
the checker's schedules, the campaign's draws, ``repro run``'s JSON
scripts, the QoS catalog's recipes and ``repro compare``'s crash.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.can.errormodel import FaultKind
from repro.can.frame import CanFrame
from repro.can.identifiers import MessageType
from repro.errors import ScenarioError
from repro.obs.episodes import Episodes
from repro.obs.qos import QoSMetrics, compute_qos
from repro.workloads.adversary import BabblingIdiot

#: Default number of membership cycles a cold-start settles for.
DEFAULT_SETTLE_CYCLES = 6.0


@dataclass(frozen=True)
class FrameMatch:
    """A plain-data frame selector for :meth:`ScenarioBuilder.omit`.

    Selects the ``nth`` (0-based) frame — counted from the moment the fault
    is armed — whose message type is ``mtype`` and, when ``node`` is given,
    whose message identifier names that node. Being plain data (no
    closures), a :class:`FrameMatch` serializes into check/campaign
    artifacts and crosses process boundaries, which a bare predicate
    cannot.
    """

    mtype: str
    node: Optional[int] = None
    nth: int = 0

    def __post_init__(self) -> None:
        if self.mtype not in MessageType.__members__:
            raise ScenarioError(
                f"unknown message type {self.mtype!r}; expected one of "
                f"{sorted(MessageType.__members__)}"
            )
        if self.nth < 0:
            raise ScenarioError(f"nth must be >= 0: {self.nth}")

    def predicate(self) -> Callable[[CanFrame], bool]:
        """Compile to a stateful frame predicate for the fault injector."""
        mtype = MessageType[self.mtype]
        node = self.node
        remaining = [self.nth]

        def match(frame: CanFrame) -> bool:
            mid = frame.mid
            if mid.mtype is not mtype:
                return False
            if node is not None and mid.node != node:
                return False
            if remaining[0] > 0:
                remaining[0] -= 1
                return False
            return True

        return match


FrameSelector = Union[FrameMatch, Callable[[CanFrame], bool]]

#: One scripted membership action: ``(instant, "crash"|"leave"|"join", node)``.
MembershipEvent = Tuple[float, str, int]


def expected_survivors(
    initial: Iterable[int],
    events: Iterable[MembershipEvent],
    doomed: Iterable[int] = (),
) -> Set[int]:
    """The one definition of the survivor set a final agreed view must equal.

    ``events`` fold over ``initial`` in instant order (ties as given): a
    join adds its node, a crash or leave removes it. ``doomed`` nodes are
    out by the end whatever the fold says: after a run, every node found
    down (a sender-crash omission crashes its sender at no scripted
    instant); predicting from a schedule, its sender-crash targets.
    """
    members = set(initial)
    for _instant, action, node in sorted(events, key=lambda event: event[0]):
        if action == "join":
            members.add(node)
        else:
            members.discard(node)
    return members - set(doomed)


def _unconverged(views: Dict[int, Iterable[int]], expected: Set[int]) -> str:
    """Which of bootstrap's two conditions failed, and at which nodes:
    the membership is not the expected one, or it is and views differ."""
    members = set(views)
    if members != expected:
        return (
            f"not members: {sorted(expected - members)}, unexpected "
            f"members: {sorted(members - expected)}"
        )
    sets = {node: frozenset(view) for node, view in views.items()}
    common = Counter(sets.values()).most_common(1)[0][0]
    differ = [
        f"node {node} lacks {sorted(common - view)} adds {sorted(view - common)}"
        for node, view in sets.items()
        if view != common
    ]
    return (
        f"members are as expected but {len(differ)} of {len(sets)} views "
        f"differ from the most common one {sorted(common)}: "
        f"{'; '.join(differ)}"
    )


@dataclass(frozen=True)
class FinalState:
    """The whole-run verdict the online monitors cannot see: *agreement*
    (every correct full member holds the same view) and *validity* (that
    view is exactly the expected survivors — no missed detection, no lost
    join, nobody else touched)."""

    #: node -> sorted view, at every correct full member.
    views: Dict[int, List[int]]
    agree: bool
    #: The agreed view; empty when the members disagree (or none is left).
    members: List[int]
    expected: List[int]

    @property
    def ok(self) -> bool:
        return self.agree and self.members == self.expected

    @property
    def detail(self) -> str:
        """Why the state is not :attr:`ok`; empty when it is."""
        if self.ok:
            return ""
        problem = (
            f"final view {self.members} != expected survivors {self.expected}"
            if self.agree
            else "surviving members disagree on the final view"
        )
        return f"{problem} (views at {self.views})"


class ScenarioBuilder:
    """Fluent scenario scripting over one simulated network.

    Every method returns the builder, so a whole scenario chains into one
    expression. ``seed`` is purely declarative — it labels the scenario so
    non-convergence errors (and check/campaign reports built on them) are
    reproducible from the message alone.
    """

    def __init__(self, network, seed: Optional[int] = None) -> None:
        self._net = network
        self.seed = seed
        #: Latest absolute time at which a scripted action fires; the
        #: settling loop will not declare stability before this instant.
        self._last_action_at = network.sim.now
        #: Ground truth, recorded as it is scripted: the full members at
        #: the observation-window ``start`` (both reset by
        #: :meth:`bootstrap`) and every scheduled crash/leave/join in call
        #: order.
        self.members: List[int] = sorted(network.member_views())
        self.start: int = network.sim.now
        self.intent: List[MembershipEvent] = []
        #: The babbling idiots :meth:`babble` added, in call order.
        self.babblers: List[BabblingIdiot] = []

    @property
    def network(self):
        """The underlying network (for queries after the chain ends)."""
        return self._net

    # -- cold start ---------------------------------------------------------

    def bootstrap(
        self,
        settle_cycles: float = DEFAULT_SETTLE_CYCLES,
        nodes: Optional[Sequence[int]] = None,
    ) -> "ScenarioBuilder":
        """Cold-start: the given ``nodes`` (default: all) join, then the
        network settles for ``settle_cycles`` membership cycles.

        Raises :class:`~repro.errors.ScenarioError` on non-convergence; the
        message carries the settle-cycle count and the builder's ``seed``
        so campaign/check failures are reproducible from the message alone.
        """
        net = self._net
        if nodes is None:
            net.join_all()
            expected = set(net.nodes)
        else:
            expected = set(nodes)
            for node_id in nodes:
                net.node(node_id).join()
        net.run_for(net.config.tjoin_wait)
        net.run_cycles(settle_cycles)
        self.members = sorted(expected)
        self.start = self._last_action_at = net.sim.now
        views = net.member_views()
        if set(views) != expected or not net.views_agree():
            raise ScenarioError(
                f"bootstrap did not converge: "
                f"{_unconverged(views, expected)} "
                f"(settle_cycles={settle_cycles}, seed={self.seed!r})"
            )
        return self

    # -- timed node actions --------------------------------------------------

    def _schedule(self, at: int, action: Callable[[], None]) -> int:
        when = self._net.sim.now + at
        if at < 0:
            raise ScenarioError(f"cannot schedule {at} ticks in the past")
        self._last_action_at = max(self._last_action_at, when)
        self._net.sim.schedule_at(when, action)
        return when

    def _membership_action(
        self, action: str, node_id: int, at: int
    ) -> "ScenarioBuilder":
        """Schedule the node method named ``action`` and record the intent."""
        when = self._schedule(at, getattr(self._net.node(node_id), action))
        self.intent.append((when, action, node_id))
        return self

    def crash(self, node_id: int, at: int = 0) -> "ScenarioBuilder":
        """Crash ``node_id`` (fail-silent) ``at`` ticks from now."""
        return self._membership_action("crash", node_id, at)

    def join(self, node_id: int, at: int = 0) -> "ScenarioBuilder":
        """Issue a join request for ``node_id`` ``at`` ticks from now."""
        return self._membership_action("join", node_id, at)

    def leave(self, node_id: int, at: int = 0) -> "ScenarioBuilder":
        """Issue a leave request for ``node_id`` ``at`` ticks from now."""
        return self._membership_action("leave", node_id, at)

    def at(self, at: int, action: Callable[[], None]) -> "ScenarioBuilder":
        """Escape hatch: run ``action()`` ``at`` ticks from now."""
        self._schedule(at, action)
        return self

    # -- network faults --------------------------------------------------------

    def omit(
        self,
        frame: Optional[FrameSelector] = None,
        tx_index: Optional[int] = None,
        inconsistent: bool = False,
        accepting: Sequence[int] = (),
        count: int = 1,
        crash_sender: bool = False,
        segment: int = 0,
    ) -> "ScenarioBuilder":
        """Arm an omission fault on the network's fault injector.

        ``frame`` selects by content — a :class:`FrameMatch` or a bare
        ``CanFrame -> bool`` predicate; ``tx_index`` selects the n-th
        physical transmission instead. ``inconsistent=True`` makes the
        ``accepting`` subset of nodes accept the frame while everyone else
        (sender included) sees an error — the paper's last-two-bits
        scenario; combined with ``crash_sender=True`` the sender dies
        before the automatic retransmission, if the fault ever fires (the
        final state then finds it down). ``segment`` picks the bus —
        segment or replicated channel — whose injector is armed (default:
        the first, the one a single-bus network's scripted faults drive).
        """
        if (frame is None) == (tx_index is None):
            raise ScenarioError("omit() needs exactly one of frame/tx_index")
        kind = (
            FaultKind.INCONSISTENT_OMISSION
            if inconsistent
            else FaultKind.CONSISTENT_OMISSION
        )
        if accepting and not inconsistent:
            raise ScenarioError(
                "an accepting subset only makes sense for inconsistent "
                "omissions"
            )
        injector = self._segment_bus(segment).injector
        if tx_index is not None:
            injector.fault_on_transmission(
                tx_index, kind, accepting=accepting, crash_sender=crash_sender
            )
        else:
            predicate = (
                frame.predicate() if isinstance(frame, FrameMatch) else frame
            )
            injector.fault_on_frame(
                predicate,
                kind,
                accepting=accepting,
                crash_sender=crash_sender,
                count=count,
            )
        return self

    def _segment_bus(self, segment: int):
        """One of the network's ``buses`` (segments or channels), by index."""
        buses = self._net.buses
        if not 0 <= segment < len(buses):
            raise ScenarioError(
                f"network has no segment {segment} "
                f"(seed={self.seed!r})"
            )
        return buses[segment]

    def inaccessibility(
        self, bits: int, at: int = 0, segment: int = 0
    ) -> "ScenarioBuilder":
        """Inject a ``bits``-long bus inaccessibility window ``at`` ticks
        from now (on ``segment``, for multi-segment and dual-channel
        networks)."""
        bus = self._segment_bus(segment)
        self._schedule(at, partial(bus.inject_inaccessibility, bits))
        return self

    def babble(self, bits: int, at: int = 0) -> "ScenarioBuilder":
        """Attach a saturating top-priority :class:`BabblingIdiot` to the
        first bus now, under the first node id no node or earlier babbler
        holds, and let it babble for ``bits`` bit times from ``at`` ticks
        from now."""
        net = self._net
        babbler = BabblingIdiot(
            net.sim, net.bus, node_id=len(net.nodes) + len(self.babblers)
        )
        self.babblers.append(babbler)
        self._schedule(at, babbler.start)
        self._schedule(at + net.bus.timing.bits_to_ticks(bits), babbler.stop)
        return self

    # -- advancing the clock -----------------------------------------------------

    def run_for(self, duration: int) -> "ScenarioBuilder":
        """Advance the simulation by ``duration`` ticks."""
        self._net.run_for(duration)
        return self

    def run_until_settled(
        self,
        max_cycles: int = 60,
        stable_cycles: int = 2,
    ) -> "ScenarioBuilder":
        """Run until every scripted action has fired and the surviving full
        members agree on an unchanged view for ``stable_cycles`` consecutive
        membership cycles.

        Raises :class:`~repro.errors.ScenarioError` (carrying the seed)
        when the network has not settled within ``max_cycles`` cycles.
        """
        net = self._net
        if net.sim.now < self._last_action_at:
            net.sim.run_until(self._last_action_at)
        stable = 0
        previous = None
        for _cycle in range(max_cycles):
            net.run_cycles(1)
            views = net.member_views()
            members = set(views)
            agreed = views and all(
                view == next(iter(views.values())) for view in views.values()
            )
            snapshot = (
                frozenset(next(iter(views.values()))) if agreed else None,
                frozenset(members),
            )
            if agreed and snapshot == previous:
                stable += 1
                if stable >= stable_cycles:
                    return self
            else:
                stable = 0
            previous = snapshot
        raise ScenarioError(
            f"network did not settle within {max_cycles} membership cycles "
            f"(stable_cycles={stable_cycles}, seed={self.seed!r})"
        )

    # -- readouts: every figure and verdict of the run, on demand --------------

    def scripted(self, action: str) -> Dict[int, List[int]]:
        """node -> every scripted instant of ``action`` (``"crash"``,
        ``"leave"`` or ``"join"``), in instant order."""
        times: Dict[int, List[int]] = {}
        for when, kind, node in sorted(self.intent, key=itemgetter(0)):
            if kind == action:
                times.setdefault(node, []).append(when)
        return times

    def qos(self) -> QoSMetrics:
        """The FD-QoS readout of the window from :attr:`start` to now,
        judged per spell against the recorded truth. Crashes are read from
        the trace's ``node.crash`` records: every scripted crash that fired
        is there, and so are the ones nobody scheduled (sender-crash
        omissions)."""
        net = self._net
        return compute_qos(
            net.sim.trace,
            nodes=self.members,
            start=self.start,
            end=net.sim.now,
            leave_times=self.scripted("leave"),
            join_times=self.scripted("join"),
            segment_of=net.segment_map,
        )

    def detection_latencies(self) -> Dict[int, List[Optional[int]]]:
        """Crash-to-first-notification latency of every scripted crash, in
        ticks, per node in crash order; ``None`` for a crash no view change
        ever reported."""
        return Episodes.of(
            self._net.sim.trace, crashes=self.scripted("crash")
        ).latencies()

    def final_state(self) -> FinalState:
        """Judge the finished run: agreement among the correct full members
        and validity against :func:`expected_survivors` over the recorded
        intent, minus whoever is observed down (a sender-crash omission
        crashes nodes nobody scripted). Scripted crashes stay in the fold,
        so one that silently never fired is a violation. Reads node state
        only — no trace scan."""
        net = self._net
        down = {node.node_id for node in net.nodes.values() if node.crashed}
        agree = net.views_agree()
        return FinalState(
            views={n: sorted(v) for n, v in net.member_views().items()},
            agree=agree,
            members=sorted(net.agreed_view()) if agree else [],
            expected=sorted(
                expected_survivors(self.members, self.intent, down)
            ),
        )
