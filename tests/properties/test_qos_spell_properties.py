"""Property: on runs of one spell per node, the per-spell QoS engine reads
exactly what the one-spell engine did.

The oracle is ``tests/qos_reference.py``: ``compute_qos`` before the crash
ledger. Random windows over up to six nodes — initial members and late
joiners, at most one crash or leave per node (a joiner's after its join),
duplicate crash rows, random ``msh.change`` rows naming random nodes
failed — given the crashes as ``node.crash`` rows or as ``crash_times``,
must give equal ``QoSMetrics``: detection records, mistakes and their
horizons, removals, flaps and the exact ``P_A`` integrals.
"""

from hypothesis import given, settings, strategies as st
from qos_reference import compute_qos as one_spell_qos

from repro.obs.qos import compute_qos
from repro.sim.trace import TraceRecorder

END = 400


@st.composite
def windows(draw):
    nodes = draw(st.integers(2, 6))
    members = draw(st.integers(1, nodes))
    start = draw(st.integers(0, 50))
    at = st.integers(0, END)
    joins = {
        node: draw(at) for node in range(members, nodes) if draw(st.booleans())
    }
    crashes, leaves = {}, {}
    for node in range(nodes):
        exit_at = draw(st.none() | at)
        if exit_at is None or exit_at < joins.get(node, 0):
            continue
        (crashes if draw(st.booleans()) else leaves)[node] = exit_at
    node = st.integers(0, nodes - 1)
    changes = draw(
        st.lists(
            st.tuples(
                at, node, st.frozensets(node), st.frozensets(node, max_size=2)
            ),
            max_size=30,
        )
    )
    segments = draw(st.none() | st.just({n: n % 2 for n in range(nodes)}))
    return members, start, joins, crashes, leaves, changes, segments


def _trace(crashes, changes, repeat):
    """Crash rows ahead of the changes at the same instant (a change cannot
    name a crash before it happens), each crash recorded ``repeat`` times."""
    rows = [(time, 0, node, {}) for node, time in crashes.items()] * repeat
    rows += [
        (time, 1, observer, {"active": active, "failed": failed})
        for time, observer, active, failed in changes
    ]
    trace = TraceRecorder()
    for time, kind, node, data in sorted(rows, key=lambda row: row[:2]):
        trace.record_row(time, "node.crash" if kind == 0 else "msh.change", node, data)
    return trace


@settings(max_examples=300, deadline=None)
@given(window=windows(), scripted=st.booleans(), repeat=st.integers(1, 2))
def test_one_spell_runs_read_as_before(window, scripted, repeat):
    members, start, joins, crashes, leaves, changes, segments = window
    trace = _trace(crashes, changes, repeat)
    truth = dict(
        nodes=range(members),
        start=start,
        end=END,
        crash_times=crashes if scripted else None,
        leave_times=leaves,
        join_times=joins,
        segment_of=segments,
    )
    assert compute_qos(trace, **truth) == one_spell_qos(trace, **truth)
