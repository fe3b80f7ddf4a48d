"""Property-based tests for the tuple-heap :class:`EventQueue`, drained by
the kernel.

The queue trades simplicity for speed everywhere — lazy cancellation with a
live-count, heap compaction once dead entries dominate, in-place reschedule
leaving stale entries to be repaired when they surface — and the one loop
that takes events off it is :meth:`Simulator._drain
<repro.sim.kernel.Simulator._drain>`. Hypothesis drives arbitrary
interleavings of ``schedule`` / ``cancel`` / ``try_reschedule`` / ``step``
/ ``run_until`` on a :class:`Simulator` against a naive model (a plain list
of live entries, fully sorted on every step) and the two must agree on the
live count and the exact ``(time, priority, seq)`` firing order at every
step.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import Simulator


class ModelEntry:
    """A live event in the naive reference model."""

    def __init__(self, time, priority, seq):
        self.time = time
        self.priority = priority
        self.seq = seq

    def key(self):
        return (self.time, self.priority, self.seq)


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(min_value=0, max_value=500),
            st.integers(min_value=-2, max_value=2),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(
            st.just("reschedule"),
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=500),
        ),
        st.tuples(st.just("step")),
        st.tuples(st.just("until"), st.integers(min_value=0, max_value=200)),
    ),
    max_size=200,
)


def fired_key(event):
    return (event.time, event.priority, event.seq)


@settings(max_examples=200, deadline=None)
@given(ops)
def test_queue_agrees_with_naive_model(plan):
    sim = Simulator()
    queue = sim._queue
    seq = 0
    handles = []  # every Event ever scheduled, in schedule order
    fired = []  # the handles the drain fired, in firing order
    model = {}  # id(event) -> ModelEntry, live entries only

    def take(count):
        """The ``count`` earliest model entries, removed from the model."""
        best = sorted(model.items(), key=lambda item: item[1].key())[:count]
        for key, _ in best:
            del model[key]
        return [entry.key() for _, entry in best]

    for op in plan:
        kind = op[0]
        if kind == "push":
            _, delay, priority = op
            record = lambda index=len(handles): fired.append(handles[index])
            event = sim.schedule(delay, record, priority)
            assert event.seq == seq
            model[id(event)] = ModelEntry(sim.now + delay, priority, seq)
            seq += 1
            handles.append(event)
        elif kind == "cancel":
            if not handles:
                continue
            event = handles[op[1] % len(handles)]
            event.cancel()
            model.pop(id(event), None)
        elif kind == "reschedule":
            if not handles:
                continue
            _, pick, delay = op
            event = handles[pick % len(handles)]
            time = sim.now + delay
            # Live, still owned by the queue, deferred (never advanced).
            allowed = (
                not event.cancelled
                and event._queue is queue
                and time >= event.time
            )
            assert sim.try_reschedule(event, time) == allowed
            if allowed:
                # Reschedule is specified as cancel + fresh push, collapsed.
                model[id(event)] = ModelEntry(time, event.priority, seq)
                assert event.seq == seq
                seq += 1
        elif kind == "step":
            expected = take(1)
            assert sim.step() == bool(expected)
            assert [fired_key(event) for event in fired] == expected
            if expected:
                assert sim.now == expected[0][0]
        else:  # "until": a bounded drain
            bound = sim.now + op[1]
            due = sum(1 for entry in model.values() if entry.time <= bound)
            expected = take(due)
            assert sim.run_until(bound) == due
            assert [fired_key(event) for event in fired] == expected
            assert sim.now == bound
        fired.clear()
        assert sim.pending_events == len(model)

    # Drain whatever is left and verify the full residual order.
    expected = take(len(model))
    sim.run()
    assert [fired_key(event) for event in fired] == expected


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=80, max_size=200)
)
def test_heavy_cancel_purge_keeps_live_count_exact(times):
    """Force the lazy-purge path: cancel most of a large heap and the live
    count and firing order must stay exact."""
    sim = Simulator()
    fired = []
    events = [
        sim.schedule_at(time, lambda i=index: fired.append(events[i]))
        for index, time in enumerate(times)
    ]
    survivors = []
    for index, event in enumerate(events):
        if index % 5 == 0:
            survivors.append(event)
        else:
            event.cancel()
    assert sim.pending_events == len(survivors)
    sim.run()
    assert [(event.time, event.seq) for event in fired] == sorted(
        (event.time, event.seq) for event in survivors
    )
