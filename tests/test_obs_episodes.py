"""The per-spell crash ledger (:mod:`repro.obs.episodes`).

Unit tests on hand-made traces, a property that the live ledger and its
replay after the run agree, the crash-rejoin-crash scenarios that need
more than one spell per node, and the QoS readout of every catalog recipe
against the one-spell engine, which replays every row.
"""

import pytest
from hypothesis import given, settings, strategies as st
from qos_reference import compute_qos as one_spell_qos

from repro.analysis.latency import measured_detection_latencies
from repro.obs.episodes import Crash, Episodes
from repro.scenarios import CATALOG, scenario_names
from repro.sim.clock import MS, ms
from repro.sim.trace import TraceRecorder
from repro.workloads.scenario import load_script, play, run

SCENARIOS = "examples/scenarios"


def change(trace, time, observer, failed, active=()):
    trace.record(
        time, "msh.change", node=observer,
        active=frozenset(active), failed=frozenset(failed),
    )


def test_one_change_feeds_every_victim():
    """Two crashes folded into one membership cycle: the single
    ``msh.change`` naming both is attributed to each of them, per
    observer, and a notification predating a crash is ignored."""
    trace = TraceRecorder()
    change(trace, 50, 0, {1}, active={0, 3})  # stale: node 1 is still up
    change(trace, 140, 0, {1, 2}, active={0, 3})
    change(trace, 160, 3, {1, 2}, active={0, 3})
    episodes = Episodes.of(trace, crashes={1: 100, 2: 120})
    assert episodes.crashes == {
        1: [Crash(1, 100, {0: 140, 3: 160})],
        2: [Crash(2, 120, {0: 140, 3: 160})],
    }
    assert measured_detection_latencies(trace, {1: 100, 2: 120}) == {1: 40, 2: 20}


def test_a_notification_belongs_to_the_latest_crash_before_it():
    trace = TraceRecorder()
    trace.record(10, "node.crash", node=2)
    change(trace, 20, 0, {2})
    change(trace, 25, 0, {2})  # only the first per observer counts
    trace.record(60, "node.recover", node=2)
    change(trace, 65, 1, {2})  # late, but before the next crash
    trace.record(90, "node.crash", node=2)
    change(trace, 95, 1, {2})
    change(trace, 100, 0, {2})
    episodes = Episodes.of(trace)
    assert episodes.crashes[2] == [
        Crash(2, 10, {0: 20, 1: 65}),
        Crash(2, 90, {1: 95, 0: 100}),
    ]
    assert episodes.latencies() == {2: [10, 5]}
    assert measured_detection_latencies(trace) == {2: [10, 5]}
    assert episodes.down == {2: 90}


def test_a_crash_while_down_is_the_same_crash():
    trace = TraceRecorder()
    trace.record(10, "node.crash", node=1)
    trace.record(30, "node.crash", node=1)
    change(trace, 40, 0, {1})
    episodes = Episodes.of(trace)
    assert episodes.crashes == {1: [Crash(1, 10, {0: 40})]}


def test_scripted_crashes_replace_the_rows():
    """Given crash instants stand in for the ``node.crash`` rows, each one
    a crash: a change at a crash's instant counts for it, and a crash after
    the last row still gets its (unnotified) entry."""
    trace = TraceRecorder()
    trace.record(5, "node.crash", node=3)  # not scripted: ignored
    change(trace, 20, 0, {1})
    trace.record(30, "node.recover", node=1)
    change(trace, 40, 0, {1})
    episodes = Episodes.of(trace, crashes={1: [20, 35], 4: 500})
    assert episodes.crashes == {
        1: [Crash(1, 20, {0: 20}), Crash(1, 35, {0: 40})],
        4: [Crash(4, 500)],
    }
    assert episodes.latencies() == {1: [0, 5], 4: [None]}


def test_spells_follow_joins_leaves_and_crashes():
    trace = TraceRecorder()
    trace.record(10, "node.crash", node=2)
    trace.record(60, "node.recover", node=2)
    trace.record(90, "node.crash", node=2)
    episodes = Episodes.of(
        trace,
        members=[0, 1, 2],
        joins={2: 70, 3: [20, 80], 1: 30},  # node 1 is in: no new spell
        leaves={1: 50, 3: 40},
    )
    assert episodes.spells() == {
        0: [[None, None]],
        1: [[None, 50]],
        2: [[None, 10], [70, 90]],
        3: [[20, 40], [80, None]],
    }


# -- the live ledger is its own replay ---------------------------------------------

NODES = range(4)
rows = st.lists(
    st.tuples(
        st.integers(0, 20),  # delta to the previous row
        st.sampled_from(["node.crash", "node.recover", "msh.change", "msh.view"]),
        st.sampled_from(NODES),
        st.lists(st.sampled_from(NODES), max_size=3).map(frozenset),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(rows=rows)
def test_the_live_ledger_equals_its_replay(rows):
    trace = TraceRecorder()
    live = Episodes()
    live.attach(trace)
    time = 0
    for delta, category, node, failed in rows:
        time += delta
        data = {"active": frozenset(), "failed": failed}
        if category == "msh.view":
            data = {"members": failed, "round_index": 0}
        elif category != "msh.change":
            data = {}
        trace.record_row(time, category, node, data)
    replayed = Episodes.of(trace)
    assert live.crashes == replayed.crashes
    assert live.down == replayed.down
    assert live.latencies() == replayed.latencies()


# -- more than one spell per node ------------------------------------------------


def _run(name):
    with open(f"{SCENARIOS}/{name}.json") as handle:
        return run(load_script(handle.read()))


def test_crash_and_rejoin_expects_node_5_in_both_spells():
    """Node 5 crashes at +200 ms and is rebooted and rejoins at +700 ms:
    the QoS truth expects it before its crash and again from its rejoin
    (a run of one spell per node expected it at no instant and read P_A
    0.913)."""
    result = _run("crash_and_rejoin")
    builder = result.builder
    start = builder.start
    episodes = Episodes.of(
        result.network.sim.trace,
        members=builder.members,
        joins=builder.scripted("join"),
        leaves=builder.scripted("leave"),
    )
    assert episodes.spells()[5] == [[None, start + ms(200)], [start + ms(700), None]]
    qos = builder.qos()
    assert [(crash.node, crash.crash_time) for crash in qos.crashes] == [
        (5, start + ms(200))
    ]
    assert not qos.mistakes
    assert qos.query_accuracy > 0.99


def test_crash_rejoin_crash_reports_both_latencies():
    """The second crash of node 5 gets its own latency, in spell order,
    and its own QoS detection record."""
    result = _run("crash_rejoin_crash")
    first, second = result.report()["crash_latencies_ms"][5]
    assert 0 < first < 30 and 0 < second < 30
    start = result.builder.start
    crashes = result.builder.qos().crashes
    assert [crash.crash_time for crash in crashes] == [
        start + ms(200), start + ms(1100)
    ]
    assert all(crash.complete for crash in crashes)
    assert [crash.first / MS for crash in crashes] == [first, second]


def _first(intent):
    return {node: instants[0] for node, instants in intent.items()}


@pytest.mark.parametrize("backend", ["canely", "swim"])
@pytest.mark.parametrize("name", scenario_names())
def test_the_readout_skips_only_rows_that_cannot_move_it(name, backend):
    """``compute_qos`` leaves out the bootstrap's admissions (an
    ``msh.change`` at or before the window start naming nobody failed);
    the one-spell engine replays every row. Every catalog recipe has one
    spell per node, and both read the same."""
    scenario, _ = CATALOG[name](backend, 0, True)
    builder = play(scenario)
    net = builder.network
    assert builder.qos() == one_spell_qos(
        net.sim.trace,
        nodes=builder.members,
        start=builder.start,
        end=net.sim.now,
        leave_times=_first(builder.scripted("leave")),
        join_times=_first(builder.scripted("join")),
        segment_of=net.segment_map,
    )
