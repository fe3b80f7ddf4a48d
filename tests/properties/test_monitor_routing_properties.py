"""Property: routing rows by category changes no monitor's verdict.

The recorder hands a row only to the monitors that declare its category,
and ``ViewAgreementMonitor`` finds a node's pairs through an index. The
oracle is the path they replaced (``tests/monitor_routing_reference.py``):
the recorder's every-row sink loop, every monitor on it filtering in
``observe``, view agreement scanning every pair. Random row streams over every monitor's categories, the bus
rows no monitor reads and an unrelated category, with payloads that
sometimes break an invariant, must give the same outcome on both paths: no
violation, or the same first violation (monitor, message, trace slice) and
the same detection-latency histograms. Then whole runs: depth-1 schedules
on both backends, and the two SWIM bugs planted in
``tests/test_backend_monitors.py``.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st
from monitor_routing_reference import every_row_monitors
from test_backend_monitors import SWIM_FRAMES, dropped_confirm, forged_confirm

from repro.check import CheckSweep
from repro.check.explorer import ScheduleSpace
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitors import (
    DetectionLatencyMonitor,
    DuplicateFailureSignMonitor,
    InvariantViolation,
    PhantomRemovalMonitor,
    ViewAgreementMonitor,
    standard_monitors,
)
from repro.sim.trace import TraceRecorder, record_to_dict
from repro.workloads.scenario import VERDICT_OK, run

BOUND = 40


def streams(categories, nodes, views):
    """Row streams ``(delta, category, node, payload)``; a category listed
    twice comes up twice as often."""
    failed = st.sampled_from(nodes)
    payloads = {
        "fda.nty": st.fixed_dictionaries({"failed": failed}),
        "fda.reset": st.fixed_dictionaries({"failed": failed}),
        "fda.evict": st.fixed_dictionaries({"failed": failed}),
        "swim.confirm": st.fixed_dictionaries({"failed": failed}),
        "msh.view": st.fixed_dictionaries(
            {"members": st.sampled_from(views), "round_index": st.integers(0, 3)}
        ),
        "msh.change": st.fixed_dictionaries(
            {"failed": st.lists(failed, max_size=2).map(tuple), "joined": st.just(())}
        ),
        "node.crash": st.just({}),
        "node.recover": st.just({}),
        "bus.tx": st.fixed_dictionaries({"mid": st.integers(0, 9)}),
        "bus.deliver": st.fixed_dictionaries(
            {"mid": st.integers(0, 9), "receivers": st.just((0, 1))}
        ),
        "app.tick": st.just({}),
    }
    row = st.sampled_from(categories).flatmap(
        lambda category: st.tuples(
            st.integers(0, 25), st.just(category), failed, payloads[category]
        )
    )
    return st.lists(row, min_size=12, max_size=40)


#: Every category, the rows a monitor acts on weighted up, over three
#: nodes so crashes, recoveries and notifications name the same few.
rows = streams(
    [
        "app.tick", "bus.deliver", "bus.tx", "fda.evict", "fda.reset",
        "fda.nty", "fda.nty", "msh.change", "msh.view", "msh.view", "msh.view",
        "node.crash", "node.crash", "node.recover", "node.recover",
        "swim.confirm", "swim.confirm",
    ],
    range(3),
    [(0, 1, 2), (0, 1), (0, 2), (1, 2)],
)
#: Four nodes install a shared succession of views, with reboots and the
#: odd view of their own: the pair bookkeeping of view agreement, which
#: the index keeps and the reference finds by scanning every pair.
VIEWS = [(0, 1, 2, 3), (0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 1), (2, 3)]
view_ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"), st.sampled_from(range(4))),
        st.tuples(st.just("install"), st.sampled_from(range(4))),
        st.tuples(st.just("install"), st.sampled_from(range(4))),
        st.tuples(st.just("advance"), st.sampled_from(VIEWS)),
        st.tuples(st.just("recover"), st.sampled_from(range(4))),
        st.tuples(st.just("deviate"), st.sampled_from(range(4)), st.sampled_from(VIEWS)),
    ),
    min_size=12,
    max_size=60,
)


def _view_rows(ops):
    current = VIEWS[0]
    stream = []
    for op in ops:
        if op[0] == "advance":
            current = op[1]
            stream.append((1, "bus.tx", 0, {"mid": 0}))
        elif op[0] == "recover":
            stream.append((1, "node.recover", op[1], {}))
        else:
            members = current if op[0] == "install" else op[2]
            stream.append((1, "msh.view", op[1], {"members": members, "round_index": 0}))
    return stream


view_rows = view_ops.map(_view_rows)


def _every_monitor(trace, metrics):
    standard_monitors(trace, detection_bound=BOUND, metrics=metrics)
    trace.add_sink(lambda record: None)
    DetectionLatencyMonitor(BOUND, metrics, row="swim.confirm").attach(trace)


#: Each monitor alone, so one's trip does not hide another's rows, then
#: the whole set with an every-row sink among them.
MONITOR_SETS = [
    lambda trace, metrics: DuplicateFailureSignMonitor().attach(trace),
    lambda trace, metrics: ViewAgreementMonitor().attach(trace),
    lambda trace, metrics: PhantomRemovalMonitor().attach(trace),
    lambda trace, metrics: DetectionLatencyMonitor(BOUND, metrics).attach(trace),
    _every_monitor,
]


def _judge(stream, attach_at, attach):
    """Record ``stream`` with ``attach``'s monitors attached after
    ``attach_at`` rows; the first violation, the rows an every-row sink
    attached last saw, and the latency histograms."""
    trace = TraceRecorder()
    metrics = MetricsRegistry()
    seen = []
    time = 0
    for index, (delta, category, node, data) in enumerate(stream):
        if index == attach_at:
            attach(trace, metrics)
            trace.add_sink(seen.append)
        time += delta
        try:
            trace.record_row(time, category, node, dict(data))
        except InvariantViolation as violation:
            verdict = (
                violation.monitor,
                str(violation),
                [record_to_dict(r) for r in violation.records],
            )
            break
    else:
        verdict = None
    return verdict, len(seen), metrics.snapshot()


def _crash_recover_then_removed():
    return [
        (0, "msh.view", 0, {"members": (0, 1, 2), "round_index": 1}),
        (1, "node.crash", 2, {}),
        (1, "node.recover", 2, {}),
        (1, "bus.tx", 0, {"mid": 1}),
        (1, "msh.change", 0, {"failed": (2,), "joined": ()}),
    ]


@settings(max_examples=300, deadline=None)
@given(stream=rows, attach_at=st.integers(0, 3))
@example(stream=_crash_recover_then_removed(), attach_at=0)
@example(
    stream=[
        (0, "fda.nty", 1, {"failed": 3}),
        (1, "fda.evict", 1, {"failed": 3}),
        (1, "fda.nty", 1, {"failed": 3}),
        (1, "node.recover", 1, {}),
        (1, "fda.nty", 1, {"failed": 3}),
        (1, "fda.nty", 1, {"failed": 3}),
    ],
    attach_at=0,
)
@example(
    stream=[
        (0, "msh.view", 0, {"members": (0, 1, 2), "round_index": 1}),
        (0, "msh.view", 1, {"members": (0, 1, 2), "round_index": 1}),
        (1, "node.recover", 1, {}),
        (1, "msh.view", 1, {"members": (0, 1), "round_index": 0}),
        (1, "msh.view", 0, {"members": (0, 1, 2, 3), "round_index": 2}),
    ],
    attach_at=0,
)
@example(
    stream=[
        (0, "bus.tx", 0, {"mid": 1}),
        (0, "msh.view", 0, {"members": (0, 1), "round_index": 1}),
        (0, "node.crash", 1, {}),
        (30, "fda.nty", 0, {"failed": 1}),
        (20, "swim.confirm", 0, {"failed": 1}),
        (1, "fda.nty", 1, {"failed": 1}),
    ],
    attach_at=1,
)
def test_routed_monitors_agree_with_every_row_monitors(stream, attach_at):
    for attach in MONITOR_SETS:
        routed = _judge(stream, attach_at, attach)
        with every_row_monitors():
            reference = _judge(stream, attach_at, attach)
        assert routed == reference


@settings(max_examples=300, deadline=None)
@given(stream=view_rows)
def test_view_agreement_pairs_match_the_scan(stream):
    view_agreement = MONITOR_SETS[1]
    routed = _judge(stream, 0, view_agreement)
    with every_row_monitors():
        reference = _judge(stream, 0, view_agreement)
    assert routed == reference


def _spot_check(space, backend, segments=1, stride=7):
    population = list(CheckSweep(space=space, depth=1))
    results = [
        run(replace(schedule, backend=backend, segments=segments))
        for schedule in population[::stride]
    ]
    return [
        {
            "verdict": r.verdict,
            "monitor": r.monitor,
            "detail": r.detail,
            "fingerprint": r.fingerprint,
            "events": r.events,
            "final_members": r.final_members,
            "expected_members": r.expected_members,
            "violation_slice": r.violation_slice,
            "elapsed_s": r.elapsed_s,
        }
        for r in results
    ]


def _comparable(results):
    return [{k: v for k, v in r.items() if k != "elapsed_s"} for r in results]


@pytest.mark.parametrize(
    "backend, space, segments",
    [
        ("canely", ScheduleSpace(), 1),
        ("canely", ScheduleSpace(), 2),
        ("swim", SWIM_FRAMES, 1),
    ],
    ids=["canely", "canely-2seg", "swim-frames"],
)
def test_depth_one_runs_are_judged_alike(backend, space, segments):
    routed = _spot_check(space, backend, segments)
    with every_row_monitors():
        reference = _spot_check(space, backend, segments)
    assert _comparable(routed) == _comparable(reference)


@pytest.mark.parametrize("plant", [forged_confirm, dropped_confirm])
def test_planted_swim_bugs_are_caught_alike(plant):
    with plant():
        routed = _spot_check(SWIM_FRAMES, "swim", stride=3)
        with every_row_monitors():
            reference = _spot_check(SWIM_FRAMES, "swim", stride=3)
    assert any(r["verdict"] != VERDICT_OK for r in routed)
    assert _comparable(routed) == _comparable(reference)
