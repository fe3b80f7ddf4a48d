"""The simulation-wide surveillance table (``repro.sim.timers``).

Unit tests for :class:`Watcher` / :class:`SurveillanceTable`, and the
property that pins the design: whatever the interleaving of watch, unwatch,
"heard by the set R" and "heard by each r in R in turn", the table fires
what a plain ``(observer, subject) -> deadline`` model fires, and the
collective entry fires exactly what the one-at-a-time entry does.
"""

from hypothesis import given, settings, strategies as st

from repro.can.identifiers import MessageId, MessageType
from repro.sim.kernel import Simulator
from repro.sim.timers import SurveillanceTable, TimerService


def frame_from(subject):
    return MessageId(MessageType.DATA, node=subject)


class Rig:
    """``count`` observers on one simulator, expiries logged in fire order."""

    def __init__(self, count, drifts=()):
        self.sim = Simulator()
        self.fired = []
        self.watchers = []
        self.listeners = []
        for node in range(count):
            drift = drifts[node] if node < len(drifts) else 0.0
            timers = TimerService(self.sim, drift=drift, node=node)
            watcher = timers.watcher(
                lambda subject, node=node: self.fired.append(
                    (self.sim.now, node, subject)
                ),
                name="fd.surveillance",
            )
            self.watchers.append(watcher)
            # What a failure detector registers with its layer: a listener
            # that does nothing but Watcher.heard of the sender.
            self.listeners.append(
                lambda mid, watcher=watcher: watcher.heard(mid.node)
            )
        self.table = SurveillanceTable.of(self.sim)
        self._tuples = {}

    def heard_by(self, subject, receivers, collective=True):
        """A frame from ``subject`` reached ``receivers``, in that order."""
        if not collective:
            for receiver in receivers:
                self.watchers[receiver].heard(subject)
            return
        # The bus hands over the same tuple object for the same receivers.
        listeners = self._tuples.setdefault(
            receivers, tuple(self.listeners[r] for r in receivers)
        )
        self.table.heard(frame_from(subject), listeners)


# -- unit ------------------------------------------------------------------------


def test_table_is_one_per_simulator():
    rig = Rig(2)
    assert rig.watchers[0].table is rig.watchers[1].table
    assert SurveillanceTable.of(Simulator()) is not rig.table


def test_watch_fires_once_and_stays_watched():
    rig = Rig(1)
    watcher = rig.watchers[0]
    watcher.watch(7, 100)
    assert watcher.watching(7) and watcher.deadline(7) == 100
    rig.sim.run_until(1000)
    assert rig.fired == [(100, 0, 7)]
    # Spent, not gone: still watched, no deadline, and nothing fires again.
    assert watcher.watching(7) and watcher.deadline(7) is None
    assert watcher.subjects == [7]


def test_late_life_sign_rearms_a_spent_watch():
    rig = Rig(1)
    watcher = rig.watchers[0]
    watcher.watch(7, 100)
    rig.sim.run_until(150)
    watcher.heard(7)
    assert watcher.deadline(7) == 250
    rig.sim.run_until(1000)
    assert rig.fired == [(100, 0, 7), (250, 0, 7)]


def test_heard_of_an_unwatched_subject_is_ignored():
    rig = Rig(1)
    rig.watchers[0].heard(3)
    rig.heard_by(3, (0,))
    rig.sim.run_until(1000)
    assert rig.fired == [] and not rig.watchers[0].watching(3)


def test_unwatch_and_clear_cancel_the_kernel_event():
    rig = Rig(2)
    for watcher in rig.watchers:
        watcher.watch(5, 100)
        watcher.watch(6, 100)
    assert rig.sim.pending_events == 2  # one per group, not per watch
    rig.watchers[0].unwatch(5)
    rig.watchers[0].unwatch(5)  # idempotent
    assert rig.sim.pending_events == 2
    rig.watchers[1].unwatch(5)
    assert rig.sim.pending_events == 1
    rig.watchers[0].clear()
    rig.watchers[1].clear()
    assert rig.sim.pending_events == 0
    rig.sim.run_until(1000)
    assert rig.fired == []


def test_observers_of_one_delivery_share_one_deadline_and_one_event():
    rig = Rig(4)
    for watcher in rig.watchers:
        watcher.watch(9, 100)
    rig.sim.run_until(40)
    before = rig.sim.events_processed
    for _ in range(5):
        rig.heard_by(9, (0, 1, 2, 3))
        rig.sim.run_until(rig.sim.now + 40)
    assert rig.sim.pending_events == 1
    assert rig.sim.events_processed == before  # deferred in place, never fired
    assert {w.deadline(9) for w in rig.watchers} == {rig.sim.now - 40 + 100}
    rig.sim.run_until(10_000)
    # One event, four expiries, in delivery order.
    assert rig.sim.events_processed == before + 1
    assert rig.fired == [(300, 0, 9), (300, 1, 9), (300, 2, 9), (300, 3, 9)]


def test_group_splits_on_partial_delivery_and_remerges():
    rig = Rig(3)
    for watcher in rig.watchers:
        watcher.watch(9, 100)
    rig.sim.run_until(10)
    rig.heard_by(9, (0, 2))  # an inconsistent omission: node 1 missed it
    assert [w.deadline(9) for w in rig.watchers] == [110, 100, 110]
    assert rig.sim.pending_events == 2
    rig.sim.run_until(20)
    rig.heard_by(9, (0, 1, 2))  # the retransmission reaches everybody
    assert [w.deadline(9) for w in rig.watchers] == [120, 120, 120]
    assert rig.sim.pending_events == 1


def test_partial_delivery_joining_an_older_group_leaves_its_members_behind():
    """Node 1's re-armed deadline lands exactly on node 0's older one: one
    group, but only node 1 heard — the next frame only node 1 hears must
    not defer node 0 with it."""
    rig = Rig(2)
    rig.watchers[0].watch(9, 12)
    rig.watchers[1].watch(9, 8)
    rig.sim.run_until(4)
    rig.heard_by(9, (1,))
    assert [w.deadline(9) for w in rig.watchers] == [12, 12]
    assert rig.sim.pending_events == 1
    rig.sim.run_until(5)
    rig.heard_by(9, (1,))
    assert [w.deadline(9) for w in rig.watchers] == [12, 13]
    rig.sim.run_until(100)
    assert rig.fired == [(12, 0, 9), (13, 1, 9)]


def test_deferred_deadline_landing_on_a_sibling_group_merges_in_order():
    """Two durations, one subject: deferring the shorter group by the gap
    puts it exactly where the longer one still sits."""
    rig = Rig(2)
    rig.watchers[0].watch(9, 8)
    rig.watchers[1].watch(9, 12)
    rig.sim.run_until(1)
    rig.heard_by(9, (0, 1))  # groups at 9 and 13, both formed by this tuple
    rig.sim.run_until(5)
    rig.heard_by(9, (0, 1))  # 5 + 8 = 13: occupied until node 1 moves on
    assert [w.deadline(9) for w in rig.watchers] == [13, 17]
    assert rig.sim.pending_events == 2
    rig.sim.run_until(100)
    assert rig.fired == [(13, 0, 9), (17, 1, 9)]


def test_a_fenced_deadline_takes_no_newcomers_and_fires_in_arming_order():
    """The tie rule, at table level: observers restart a watch and each then
    starts a private alarm due at the very same tick, as SWIM's receivers of
    a SUSPECT frame do when ``suspicion_timeout == fail_after``. Fenced, the
    table fires what per-watch alarms would: watch, alarm, watch, alarm."""
    rig = Rig(3)
    timers = [TimerService(rig.sim, node=node) for node in range(3)]
    for node, watcher in enumerate(rig.watchers):
        watcher.watch(9, 100)
        alarm = timers[node].start_alarm(
            100, lambda node=node: rig.fired.append((rig.sim.now, node, "alarm"))
        )
        watcher.fence(alarm.deadline)
    assert {watcher.deadline(9) for watcher in rig.watchers} == {100}
    assert rig.sim.pending_events == 6  # a group each, not one for the three
    rig.sim.run_until(150)
    assert rig.fired == [
        (100, 0, 9), (100, 0, "alarm"),
        (100, 1, 9), (100, 1, "alarm"),
        (100, 2, 9), (100, 2, "alarm"),
    ]
    # The next frame everybody hears re-merges them, memo and all.
    for _ in range(2):
        rig.heard_by(9, (0, 1, 2))
    assert rig.sim.pending_events == 1
    rig.sim.run_until(1_000)
    assert rig.fired[6:] == [(250, 0, 9), (250, 1, 9), (250, 2, 9)]


def test_a_fence_at_another_deadline_closes_nothing():
    rig = Rig(3)
    rig.watchers[0].watch(9, 100)
    rig.watchers[0].fence(99)
    rig.watchers[1].watch(9, 100)
    rig.watchers[2].watch(9, 100)
    assert rig.sim.pending_events == 1


def test_different_drifts_never_share_a_group():
    rig = Rig(2, drifts=(0.0, 0.01))
    for watcher in rig.watchers:
        watcher.watch(9, 1000)
    assert [w.deadline(9) for w in rig.watchers] == [1000, 1010]
    rig.sim.run_until(500)
    rig.heard_by(9, (0, 1))
    rig.heard_by(9, (0, 1))
    assert [w.deadline(9) for w in rig.watchers] == [1500, 1510]
    assert rig.sim.pending_events == 2
    rig.sim.run_until(5000)
    assert rig.fired == [(1500, 0, 9), (1510, 1, 9)]


def test_expiry_that_unwatches_a_later_member_silences_it():
    sim = Simulator()
    fired = []
    watchers = []

    def expire(node, subject):
        fired.append((node, subject))
        if node == 0:
            watchers[2].unwatch(subject)

    for node in range(3):
        watchers.append(
            TimerService(sim, node=node).watcher(
                lambda subject, node=node: expire(node, subject)
            )
        )
    for watcher in watchers:
        watcher.watch(4, 50)
    sim.run_until(100)
    assert fired == [(0, 4), (1, 4)]


def surveillance_spans(rig):
    """Every surveillance span as ``(tag, start, end, outcome, watchers)``."""
    return [
        (s.attrs["tag"], s.start, s.end, s.attrs.get("outcome"),
         tuple(s.attrs["watchers"]))
        for s in rig.sim.spans.select(name="fd.surveillance")
    ]


def test_spans_open_and_close_once_per_group():
    rig = Rig(2)
    spans = rig.sim.spans
    spans.enabled = True
    for watcher in rig.watchers:
        watcher.watch(9, 100)
    rig.sim.run_until(10)
    rig.heard_by(9, (0, 1))
    rig.watchers[1].unwatch(9)
    rig.sim.run_until(1000)
    # One span per deadline, not per watch; ``watchers`` is who the deadline
    # was armed for, node 1 included although it left before the expiry.
    assert surveillance_spans(rig) == [
        (9, 0, 10, "cancelled", (0, 1)),
        (9, 10, 110, "fired", (0, 1)),
    ]
    assert {s.node for s in spans.select(name="fd.surveillance")} == {-1}
    assert not spans.open_spans()


def test_deferring_a_settled_group_costs_one_span_whatever_its_size():
    rig = Rig(4)
    rig.sim.spans.enabled = True
    for watcher in rig.watchers:
        watcher.watch(9, 100)
    rig.sim.run_until(10)
    rig.heard_by(9, EVERYBODY)  # forms the group the next frames defer
    for at in (20, 30, 40):
        rig.sim.run_until(at)
        rig.heard_by(9, EVERYBODY)
    rig.sim.run_until(1000)
    assert surveillance_spans(rig) == [
        (9, 0, 10, "cancelled", EVERYBODY),
        (9, 10, 20, "cancelled", EVERYBODY),
        (9, 20, 30, "cancelled", EVERYBODY),
        (9, 30, 40, "cancelled", EVERYBODY),
        (9, 40, 140, "fired", EVERYBODY),
    ]
    assert rig.fired == [(140, node, 9) for node in EVERYBODY]


# -- property: the table against a plain dict model --------------------------------

NODES = 4
DRIFTS = (0.0, 0.0, 0.25, -0.25)
#: Few subjects and two durations only, so watches really do share groups
#: and deferred deadlines really do collide.
SUBJECTS = (0, 1)
DURATIONS = (8, 12)
EVERYBODY = tuple(range(NODES))

observers = st.integers(min_value=0, max_value=NODES - 1)
subjects = st.sampled_from(SUBJECTS)
watch_ops = st.tuples(
    st.just("watch"), observers, subjects, st.sampled_from(DURATIONS)
)
heard_by_all = st.tuples(st.just("heard"), subjects, st.just(EVERYBODY))
# A small menu of partial deliveries, so the same subset does come twice.
heard_by_some = st.tuples(
    st.just("heard"),
    subjects,
    st.sampled_from(((0,), (1,), (0, 1), (0, 2), (1, 2, 3))),
)
# Steps mostly on the durations' common grid: a deadline deferred from one
# frame then often lands exactly on one set by another.
run_ops = st.tuples(st.just("run"), st.sampled_from((0, 1, 4, 4, 8, 12, 15)))
# A populated table first, then mostly frames and time: the steady state
# the collective entry's memo serves, disturbed now and then.
operations = st.tuples(
    st.lists(watch_ops, min_size=4, max_size=10),
    st.lists(
        st.one_of(
            heard_by_all,
            heard_by_all,
            heard_by_some,
            heard_by_some,
            run_ops,
            run_ops,
            run_ops,
            watch_ops,
            st.tuples(st.just("unwatch"), observers, subjects),
            st.tuples(st.just("spans"), st.booleans()),
        ),
        min_size=25,  # Hypothesis lists average min_size + 5 elements
        max_size=60,
    ),
).map(lambda parts: parts[0] + parts[1])


def stretch(duration, drift):
    # TimerService._stretch: never below one tick.
    return max(1, round(duration * (1.0 + drift))) if drift else duration


def play(ops, collective):
    """Drive a rig; returns its fired log and every watch's final deadline."""
    rig = Rig(NODES, DRIFTS)
    for op in ops:
        kind = op[0]
        if kind == "watch":
            rig.watchers[op[1]].watch(op[2], op[3])
        elif kind == "unwatch":
            rig.watchers[op[1]].unwatch(op[2])
        elif kind == "heard":
            rig.heard_by(op[1], op[2], collective=collective)
        elif kind == "run":
            rig.sim.run_until(rig.sim.now + op[1])
        else:
            rig.sim.spans.enabled = op[1]
    deadlines = {
        (node, subject): watcher.deadline(subject)
        for node, watcher in enumerate(rig.watchers)
        for subject in watcher.subjects
    }
    rig.sim.run_until(rig.sim.now + 100)
    return rig, deadlines


def model(ops):
    """The same run on ``(observer, subject) -> deadline``, no groups."""
    now = 0
    stamp = 0
    duration = {}
    armed = {}  # pair -> (deadline, when last armed)
    fired = []

    def run_to(target):
        due = sorted(
            (deadline, order, pair)
            for pair, (deadline, order) in armed.items()
            if deadline <= target
        )
        for deadline, _order, pair in due:
            del armed[pair]
            fired.append((deadline, pair[0], pair[1]))
        return target

    for op in ops:
        kind = op[0]
        if kind == "watch":
            pair = (op[1], op[2])
            duration[pair] = stretch(op[3], DRIFTS[op[1]])
            stamp += 1
            armed[pair] = (now + duration[pair], stamp)
        elif kind == "unwatch":
            duration.pop((op[1], op[2]), None)
            armed.pop((op[1], op[2]), None)
        elif kind == "heard":
            for receiver in op[2]:
                pair = (receiver, op[1])
                if pair in duration:
                    stamp += 1
                    armed[pair] = (now + duration[pair], stamp)
        elif kind == "run":
            now = run_to(now + op[1])
    deadlines = {pair: armed.get(pair, (None,))[0] for pair in duration}
    run_to(now + 100)
    return fired, deadlines


def per_subject(fired):
    """Fire order within each (instant, subject): the order a group owns.
    (Two groups due at one instant fire one after the other, where per-watch
    alarms could interleave their members — the module's tie rule.)"""
    order = {}
    for time, node, subject in fired:
        order.setdefault((time, subject), []).append(node)
    return order


@settings(max_examples=200, deadline=None)
@given(operations)
def test_table_matches_the_per_pair_model(ops):
    expected_fired, expected_deadlines = model(ops)
    logs = []
    for collective in (True, False):
        rig, deadlines = play(ops, collective)
        assert deadlines == expected_deadlines
        assert per_subject(rig.fired) == per_subject(expected_fired)
        assert [f[0] for f in rig.fired] == [f[0] for f in expected_fired]
        # Nothing armed is left behind, no span is left open.
        assert rig.sim.pending_events == 0
        assert not rig.sim.spans.open_spans()
        logs.append(
            (rig.fired, rig.sim.events_processed, surveillance_spans(rig))
        )
    # "R at once" is "each r in R in order": same expiries in the same
    # order, from the same number of kernel events — and, whenever span
    # tracing was flipped on, described by the same spans in the same order.
    assert logs[0] == logs[1]
