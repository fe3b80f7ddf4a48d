"""Timer service exposing the ``start_alarm`` / ``cancel_alarm`` idiom.

The CANELy pseudocode (Figs. 7-9 of the paper) manipulates timers through
``tid := start_alarm(duration)`` and ``cancel_alarm(tid)``; expiry fires a
``when alarm(tid) expires`` clause. :class:`TimerService` reproduces exactly
that interface on top of the simulator, and :meth:`TimerService.restart_alarm`
re-arms a pending alarm by deferring its kernel event in place.

Surveillance — "observer *i* watches subject *s* and wants to know when *s*
stayed silent for *d*", CANELy's ``fd.surveillance`` timers and SWIM's
``swim.fail`` clocks alike — is not kept as one alarm per pair. Every
observer of a broadcast medium that heard the same frame from *s* restarts
the same deadline, so the simulation's :class:`SurveillanceTable` stores that
fact once: per subject, *groups* of watches that share a deadline and one
kernel event. A node reaches the table through its :class:`Watcher`
(:meth:`TimerService.watcher`), and the table has two entry widths onto one
mechanism:

* :meth:`Watcher.heard` — one observer heard the subject: its watch moves
  into the group whose deadline is ``now + d`` (``d`` is the watch's own,
  drift-stretched duration), created on demand; a group that empties
  cancels its event.
* :meth:`SurveillanceTable.heard` — the collective form: every listener of
  a tuple heard the same frame. It *is* "each listener in turn"; when the
  same tuple last formed this subject's groups and nothing touched them
  since, each such group is re-used and its one event deferred in place —
  every frame of a fault-free run. A client whose per-node upcalls do more
  than re-arm (SWIM's ``_on_swim``) runs them through
  :meth:`SurveillanceTable.each` and hands the clocks they re-armed to
  :meth:`SurveillanceTable.settle`, so that pass forms the memo too,
  whether its upcalls re-arm watches or start them (SWIM's admissions).
  The memo outlives an observer that stops watching when it covers one
  group: it goes on without that observer's clock
  (:meth:`Watcher.unwatch`), and a tuple equal to its own is as good as
  the same.

Groups split exactly when observers diverge (an inconsistent omission, a
watch that started later, a different drift) and re-merge on the next frame
everybody hears. A due group fires its members' expiries in the order they
last joined — the order per-watch alarms would have fired in. A watch whose
deadline fired stays watched but un-armed, so a late life-sign re-arms it.

Tie rule: a group is sequenced once, when it forms or is deferred, so an
event some *other* component scheduled for exactly the group's deadline fires
before or after the whole group; sequenced between two of the group's joins,
it would have fired between two per-watch alarms. The table stays exact for
both its clients. CANELy's detector cannot meet the case: ``Thb + Ttd`` equals
no other configured duration, and the bus tells the table at the first
observer's turn, ahead of every observer's own per-node upcalls. SWIM does:
``SwimConfig.from_canely`` sets ``suspicion_timeout == fail_after``, and a
SUSPECT frame makes each receiver restart the sender's ``swim.fail`` clock and
then start a private ``swim.suspicion`` alarm due at the same tick — ``fail_0,
susp_0, fail_1, susp_1, ...``. So the client that starts such an alarm says so
(:meth:`Watcher.fence`): the groups due then are closed, and the next watch to
arrive opens a group — a kernel event — of its own, sequenced after the alarm
as its per-watch alarm would have been. ``tests/properties/`` pins both
(``test_filtered_delivery.py``: plan against broadcast;
``test_swim_surveillance.py``: table against per-pair alarms, the tie built).

With span tracing on, a deadline is described the way it is kept: one span per
group per deadline (``node=-1``, ``tag`` the subject, ``watchers`` the observers
it was armed for, in joining order), ended when the group fires, is deferred or
loses its last member — even if tracing has been switched off meanwhile.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.event import Event
from repro.sim.kernel import Simulator


class Alarm:
    """Handle for a pending alarm (the ``tid`` of the pseudocode).

    The handle itself carries the armed/fired state and the expiry
    callback: arming an alarm costs one object and one scheduled event,
    with no per-alarm closure and no registry bookkeeping.
    """

    __slots__ = (
        "alarm_id",
        "deadline",
        "_event",
        "_on_expire",
        "_service",
        "_active",
        "_span",
    )

    def __init__(
        self,
        alarm_id: int,
        deadline: int,
        on_expire: Callable[[], None],
        service: "TimerService",
    ) -> None:
        self.alarm_id = alarm_id
        self.deadline = deadline
        self._event: Optional[Event] = None
        self._on_expire = on_expire
        self._service = service
        self._active = True
        self._span: Optional[int] = None

    def _fire(self) -> None:
        # Cancelled events never reach here; just retire and deliver. The
        # spent event goes too: the event holds this handle's ``_fire``, and
        # kept, the pair would be a cycle only the cyclic collector frees.
        self._active = False
        self._event = None
        self._service._pending -= 1
        if self._span is None:
            self._on_expire()
            return
        # The timer span ends at expiry; everything the callback triggers
        # (failure-sign requests, membership cycles, ...) is causally *its*
        # consequence, so the span stays pushed as context around the call.
        spans = self._service._spans
        spans.end(self._span, outcome="fired")
        spans.push(self._span)
        try:
            self._on_expire()
        finally:
            spans.pop()


class TimerService:
    """Per-node alarm manager backed by a :class:`Simulator`.

    ``drift`` models the node's oscillator deviation: every armed duration
    is stretched by ``(1 + drift)`` — e.g. ``drift=1e-4`` (100 ppm) makes a
    10 ms alarm fire 1 µs late. Protocol timers in real CANELy nodes run on
    exactly such imperfect clocks; the integration tests assert the suite
    tolerates realistic drifts.
    """

    def __init__(self, sim: Simulator, drift: float = 0.0, node: int = -1) -> None:
        if drift <= -1.0:
            raise ValueError(f"drift must exceed -1: {drift}")
        self._sim = sim
        self._drift = drift
        self._ids = itertools.count(1)
        self._pending = 0
        self._node = node
        self._spans = sim.spans

    @property
    def sim(self) -> Simulator:
        """The simulator this service schedules on."""
        return self._sim

    def start_alarm(
        self,
        duration: int,
        on_expire: Callable[[], None],
        name: str = "timer",
        tag: Optional[int] = None,
    ) -> Alarm:
        """Arm an alarm ``duration`` ticks from now; returns its handle.

        A zero-duration alarm fires at the current instant regardless of
        drift — drift stretches a *duration*, and a zero duration has
        nothing to stretch. Negative durations are a caller bug.

        ``name``/``tag`` label the alarm's causal span (e.g. the
        ``"swim.fail"`` span of the timer on member ``tag``); they are
        ignored while span tracing is disabled.
        """
        duration = self._stretch(duration)
        alarm = Alarm(next(self._ids), self._sim.now + duration, on_expire, self)
        alarm._event = self._sim.schedule(duration, alarm._fire)
        self._pending += 1
        if self._spans.enabled:
            if tag is None:
                alarm._span = self._spans.begin(name, "timers", node=self._node)
            else:
                alarm._span = self._spans.begin(
                    name, "timers", node=self._node, tag=tag
                )
        return alarm

    def _stretch(self, duration: int) -> int:
        if duration < 0:
            raise ValueError(f"alarm duration must be non-negative: {duration}")
        if self._drift and duration:
            # A nonzero duration never rounds below one tick: an alarm that
            # was armed to fire strictly later must not fire immediately
            # just because the oscillator runs fast.
            duration = max(1, round(duration * (1.0 + self._drift)))
        return duration

    def restart_alarm(self, alarm: Optional[Alarm], duration: int) -> bool:
        """Re-arm ``alarm`` to expire ``duration`` ticks from now, in place.

        The cancel-and-start idiom as one deferral of the alarm's kernel
        event (:meth:`Simulator.try_reschedule`); the alarm keeps its
        handle. Returns False — and touches nothing — when that cannot
        apply (alarm inactive or ``None``, span tracing active, or a
        deadline that would move *earlier*); the caller then falls back to
        :meth:`cancel_alarm` + :meth:`start_alarm`, which is exactly
        equivalent. Either path consumes one event sequence number, so
        simulated outcomes are bit-identical.
        """
        if (
            alarm is None
            or not alarm._active
            or alarm._span is not None
            or self._spans.enabled
        ):
            return False
        deadline = self._sim.now + self._stretch(duration)
        if not self._sim.try_reschedule(alarm._event, deadline):
            return False
        alarm.deadline = deadline
        return True

    def cancel_alarm(self, alarm: Optional[Alarm]) -> None:
        """Disarm ``alarm``. Cancelling ``None`` or a fired alarm is a no-op."""
        if alarm is None or not alarm._active:
            return
        alarm._active = False
        service = alarm._service
        service._pending -= 1
        alarm._event.cancel()
        alarm._event = None  # as ``Alarm._fire``: no handle <-> event cycle
        if alarm._span is not None:
            service._spans.end(alarm._span, outcome="cancelled")

    def is_pending(self, alarm: Optional[Alarm]) -> bool:
        """True while ``alarm`` is armed and has not yet fired."""
        return alarm is not None and alarm._active

    @property
    def pending_count(self) -> int:
        """Number of currently armed alarms (watches are not alarms)."""
        return self._pending

    def watcher(
        self, on_expire: Callable[[int], None], name: str = "timer"
    ) -> "Watcher":
        """This node's handle on the simulation's :class:`SurveillanceTable`.

        ``on_expire(subject)`` is called when a watched subject stayed
        silent for its whole duration; ``name`` labels the causal spans of
        a subject's deadlines (as :meth:`start_alarm`'s does, after the
        subject's first watcher), tagged with the subject.
        """
        return Watcher(SurveillanceTable.of(self._sim), self, on_expire, name)


class _Subject:
    """What the table knows about one watched node."""

    __slots__ = ("node", "name", "watchers", "groups", "settled")

    def __init__(self, node: int, name: str) -> None:
        self.node = node
        #: Names the causal span of each of its deadlines.
        self.name = name
        #: How many watches name this subject, armed or spent.
        self.watchers = 0
        #: deadline -> the group of watches expiring then.
        self.groups: Dict[int, "_Group"] = {}
        #: ``(listeners, groups)`` while the groups a collective pass over
        #: ``listeners`` formed still hold exactly the watches it put
        #: there (deferred or fired, but none moved or added; a watch
        #: removed from a lone group takes its clock along,
        #: :meth:`Watcher.unwatch`); any other touch of this subject
        #: resets it to ``None``.
        self.settled: Optional[Tuple[tuple, List["_Group"]]] = None


class _Watch:
    """Observer *i* watches subject *s*: one surveillance timer of Fig. 8."""

    __slots__ = ("watcher", "subject", "duration", "group")

    def __init__(self, watcher: "Watcher", subject: _Subject) -> None:
        self.watcher = watcher
        self.subject = subject
        #: Drift-stretched ticks of silence this observer tolerates.
        self.duration = 0
        #: The group this watch last joined; the watch is armed while
        #: that group's deadline is pending.
        self.group: Optional["_Group"] = None


class _Group:
    """Watches of one subject sharing a deadline, and their one kernel event.

    Once the deadline fired the group is *spent* (``event is None``): its
    members stay together, un-armed, until a life-sign revives the group as
    a whole or moves them out one by one.
    """

    __slots__ = (
        "table",
        "subject",
        "deadline",
        "duration",
        "members",
        "event",
        "span",
        "member_ids",
    )

    def __init__(
        self, table: "SurveillanceTable", subject: _Subject, deadline: int
    ) -> None:
        self.table = table
        self.subject = subject
        self.deadline = deadline
        #: What every member waits for, once a collective pass found that
        #: it had put them all here (``SurveillanceTable.heard``) — hence
        #: what deferring the whole group adds to the clock.
        self.duration = 0
        #: Insertion-ordered: the order the members last (re)joined, which
        #: is the order their own alarms would have fired in.
        self.members: Dict[_Watch, None] = {}
        self.event = table._sim.schedule_at(deadline, self.fire)
        #: The span of the pending deadline, if tracing was on when it was armed.
        self.span: Optional[int] = None
        #: The members' node ids, worked out when a settled group is first
        #: deferred under tracing; good until the group next settles.
        self.member_ids: Optional[tuple] = None
        if table._spans.enabled:
            self.span = table._spans.begin(
                subject.name, "timers", tag=subject.node, watchers=[]
            )

    def fire(self) -> None:
        subject = self.subject
        if subject.groups.get(self.deadline) is self:  # else fenced off
            del subject.groups[self.deadline]
        self.event = None
        span, self.span = self.span, None
        spans = self.table._spans
        if span is not None:
            # As Alarm._fire: the span ends at expiry and stays pushed as
            # the causal context of everything the expiries trigger.
            spans.end(span, outcome="fired")
            spans.push(span)
        # A snapshot: one member's expiry may unwatch or re-arm a later one,
        # which then no longer belongs to this group and must not fire.
        try:
            for watch in list(self.members):
                if watch.group is self:
                    watch.watcher._on_expire(subject.node)
        finally:
            if span is not None:
                spans.pop()


class SurveillanceTable:
    """Who watches whom, and until when — once per simulation.

    See the module docstring for the model. The table itself only offers
    the collective entries — :meth:`heard`, and :meth:`each` /
    :meth:`settle` for clients that hear node by node; everything per
    observer goes through that observer's :class:`Watcher`.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._spans = sim.spans
        self._subjects: Dict[int, _Subject] = {}
        #: During a collective pass: group -> watches the pass put there.
        self._joined: Optional[Dict[_Group, int]] = None

    @classmethod
    def of(cls, sim: Simulator) -> "SurveillanceTable":
        """The table of ``sim``, created on first use."""
        table = sim.shared.get(cls)
        if table is None:
            table = sim.shared[cls] = cls(sim)
        return table

    def heard(self, mid, listeners: tuple) -> None:
        """Every listener in ``listeners`` heard the frame ``mid``.

        The collective form of the per-receiver upcalls: equivalent, by
        contract, to ``for listener in listeners: listener(mid)`` where each
        listener does nothing but :meth:`Watcher.heard` of ``mid.node`` —
        which is also how the general case is carried out. The common case
        is answered from the memo of the last such pass instead: the same
        tuple, this subject's groups untouched since — then re-arming every
        listener's watch *is* deferring each of those groups by its
        duration (reviving it, if it had fired), span and all.
        """
        subject = self._subjects.get(mid.node)
        if subject is None:
            return  # nobody watches the sender
        settled = subject.settled
        if settled is not None and (
            settled[0] is listeners or settled[0] == listeners
        ):
            if settled[0] is not listeners:
                # An equal tuple (a memo outlived a watch): from now on the
                # caller's, which it passes again.
                subject.settled = settled = (listeners, settled[1])
            sim = self._sim
            spans = self._spans
            now = sim._now
            groups = subject.groups
            for group in settled[1]:
                deadline = now + group.duration
                event = group.event
                if event is not None and deadline == group.deadline:
                    continue
                if deadline in groups:
                    # Occupied, if only by a group this loop has yet to
                    # move: let the pass below sort it out.
                    break
                if event is not None:
                    del groups[group.deadline]
                    if not sim.try_reschedule(event, deadline):
                        event.cancel()
                        event = None
                if event is None:
                    group.event = sim.schedule_at(deadline, group.fire)
                groups[deadline] = group
                group.deadline = deadline
                if group.span is not None:
                    spans.end(group.span, outcome="cancelled")
                    group.span = None
                if spans.enabled:
                    watchers = group.member_ids
                    if watchers is None:
                        watchers = group.member_ids = tuple(
                            [watch.watcher._timers._node for watch in group.members]
                        )
                    group.span = spans.begin(
                        subject.name, "timers", tag=subject.node, watchers=watchers
                    )
            else:
                return
        self.settle(mid.node, listeners, self.each(listeners, mid))

    def each(self, listeners: tuple, *args) -> Dict[_Group, int]:
        """``for listener in listeners: listener(*args)`` — a per-listener
        pass — returning the groups it put watches in, with how many each:
        what :meth:`settle` reads."""
        self._joined = joined = {}
        try:
            for listener in listeners:
                listener(*args)
        finally:
            self._joined = None
        return joined

    def settle(self, node: int, clocks: tuple, joined: Dict[_Group, int]) -> None:
        """Memoize the pass ``joined`` recorded (:meth:`each`) as
        :meth:`heard` of ``node`` by ``clocks``, if it is.

        The caller vouches that each of ``clocks`` re-arms one watch on
        ``node``, which the pass armed in ``clocks`` order. The memo holds
        when the groups the pass put watches in are ``node``'s, open (not
        fenced off, not fired), hold nothing else and no watch twice: then
        they hold exactly the watches ``clocks`` reach, in that order, each
        waiting for the same duration."""
        subject = self._subjects.get(node)
        if subject is None:
            return
        armed = 0
        for group, count in joined.items():
            if (
                group.subject is not subject
                or len(group.members) != count
                or group.event is None
                or subject.groups.get(group.deadline) is not group
            ):
                return
            armed += count
        if armed > len(clocks):
            return
        now = self._sim._now
        for group in joined:
            group.duration = group.deadline - now
            group.member_ids = None
        subject.settled = (clocks, list(joined))


class Watcher:
    """One observer's view of the :class:`SurveillanceTable`.

    The ``fd-can`` service of one node is a thin shell over this: ``watch``
    is START, ``unwatch`` STOP, ``heard`` the activity clause, and the
    ``on_expire`` callback the expiry clause.
    """

    def __init__(
        self,
        table: SurveillanceTable,
        timers: TimerService,
        on_expire: Callable[[int], None],
        name: str,
    ) -> None:
        self._table = table
        self._timers = timers
        self._on_expire = on_expire
        self._name = name
        self._watches: Dict[int, _Watch] = {}

    @property
    def table(self) -> SurveillanceTable:
        """The shared table (its ``heard`` is this watcher's collective form)."""
        return self._table

    def watch(self, subject: int, duration: int) -> None:
        """Start (or restart) watching ``subject``: expiry after
        ``duration`` ticks of silence, stretched by this node's drift."""
        watch = self._watches.get(subject)
        if watch is None:
            subjects = self._table._subjects
            record = subjects.get(subject)
            if record is None:
                record = subjects[subject] = _Subject(subject, self._name)
            record.watchers += 1
            watch = self._watches[subject] = _Watch(self, record)
        watch.duration = self._timers._stretch(duration)
        self._arm(watch)

    def heard(self, subject: int) -> None:
        """``subject`` showed activity: re-arm its watch, if there is one."""
        watch = self._watches.get(subject)
        if watch is not None:
            self._arm(watch)

    def unwatch(self, subject: int) -> None:
        """Stop watching ``subject`` (a no-op when it is not watched).

        A memo of one group (``_Subject.settled``) outlives it: the
        group's members are its clocks' watches in the same order, so
        without this watch they are the clocks without the one at its
        place. A memo of several groups is dropped."""
        watch = self._watches.pop(subject, None)
        if watch is None:
            return
        table = self._table
        record = watch.subject
        settled, record.settled = record.settled, None
        if settled is not None and len(settled[1]) == 1:
            clocks, (group,) = settled
            if watch.group is not group:
                record.settled = settled
            elif len(clocks) == len(group.members) > 1:
                index = list(group.members).index(watch)
                record.settled = (clocks[:index] + clocks[index + 1:], [group])
                group.member_ids = None
        self._leave(watch)
        watch.group = None
        record.watchers -= 1
        if not record.watchers:
            del table._subjects[record.node]

    def clear(self) -> None:
        """Stop every watch (node halt or reboot)."""
        for subject in list(self._watches):
            self.unwatch(subject)

    def watching(self, subject: int) -> bool:
        """True from ``watch`` to ``unwatch``, armed or spent."""
        return subject in self._watches

    @property
    def subjects(self) -> List[int]:
        """The watched subjects, in the order their watches started."""
        return list(self._watches)

    def deadline(self, subject: int) -> Optional[int]:
        """When the watch on ``subject`` expires; ``None`` when there is no
        watch or its deadline already fired."""
        watch = self._watches.get(subject)
        if watch is None or watch.group.event is None:
            return None
        return watch.group.deadline

    def fence(self, deadline: int) -> None:
        """This observer just started an alarm of its own for ``deadline``:
        the groups due then are closed to newcomers (module docstring)."""
        for record in self._table._subjects.values():
            if record.groups.pop(deadline, None) is not None:
                record.settled = None

    def _leave(self, watch: _Watch) -> None:
        """Take ``watch`` out of its group (cancel-alarm, for one watch)."""
        group = watch.group
        if group is None:
            return
        del group.members[watch]
        if not group.members and group.event is not None:
            group.event.cancel()
            group.event = None
            groups = watch.subject.groups
            if groups.get(group.deadline) is group:  # else fenced off
                del groups[group.deadline]
            if group.span is not None:
                self._table._spans.end(group.span, outcome="cancelled")
                group.span = None

    def _arm(self, watch: _Watch) -> None:
        """Move ``watch`` into the group expiring ``duration`` from now."""
        table = self._table
        record = watch.subject
        record.settled = None
        deadline = table._sim._now + watch.duration
        group = record.groups.get(deadline)
        if group is None:
            group = record.groups[deadline] = _Group(table, record, deadline)
        if watch.group is group:
            del group.members[watch]  # re-joins at the end, the deadline stands
        else:
            self._leave(watch)
            if group.span is not None:
                # In place on the list a forming group's span started with;
                # a tuple the spans of a deferred group share is replaced.
                attrs = table._spans.get(group.span).attrs
                attrs["watchers"] += (self._timers._node,)
        group.members[watch] = None
        watch.group = group
        joined = table._joined
        if joined is not None:
            joined[group] = joined.get(group, 0) + 1
