"""Unit and integration tests for the causal span tracer."""

import pytest

from repro.core.stack import CanelyNetwork
from repro.obs.spans import (
    NULL_TRACER,
    SpanTracer,
    render_span_tree,
    span_to_dict,
)
from repro.sim.clock import ms


# -- tracer unit tests ----------------------------------------------------------------


def test_begin_end_records_interval_and_attrs():
    tracer = SpanTracer(clock=lambda: 0)
    span_id = tracer.begin("can.tx", "bus", node=3, at=10, mid="X")
    tracer.end(span_id, at=25, kind="none")
    span = tracer.get(span_id)
    assert (span.start, span.end, span.duration) == (10, 25, 15)
    assert span.attrs == {"mid": "X", "kind": "none"}
    assert span.node == 3 and span.category == "bus"


def test_end_is_idempotent_and_none_safe():
    tracer = SpanTracer(clock=lambda: 0)
    span_id = tracer.begin("a", "x", at=1)
    tracer.end(span_id, at=2)
    tracer.end(span_id, at=99)  # double-end: no-op
    tracer.end(None, at=99)  # None handle: no-op
    assert tracer.get(span_id).end == 2


def test_context_stack_supplies_parent():
    tracer = SpanTracer(clock=lambda: 0)
    root = tracer.begin("root", "x", at=0)
    assert tracer.current is None
    tracer.push(root)
    child = tracer.begin("child", "x", at=1)
    tracer.pop()
    orphan = tracer.begin("orphan", "x", at=2)
    assert tracer.get(child).parent == root
    assert tracer.get(orphan).parent is None


def test_explicit_parent_wins_over_stack():
    tracer = SpanTracer(clock=lambda: 0)
    a = tracer.begin("a", "x", at=0)
    b = tracer.begin("b", "x", at=0)
    tracer.push(a)
    child = tracer.begin("child", "x", parent=b, at=1)
    tracer.pop()
    assert tracer.get(child).parent == b


def test_instant_is_zero_duration_and_can_parent():
    tracer = SpanTracer(clock=lambda: 7)
    point = tracer.instant("node.crash", "node", node=2)
    span = tracer.get(point)
    assert span.start == span.end == 7 and span.duration == 0
    tracer.push(point)
    child = tracer.begin("fd.detect", "fd", at=8)
    tracer.pop()
    assert tracer.get(child).parent == point


def test_events_attach_to_open_spans():
    tracer = SpanTracer(clock=lambda: 0)
    span_id = tracer.begin("can.frame", "can", at=0)
    tracer.event(span_id, "arb-loss", at=5)
    tracer.event(None, "ignored")
    assert tracer.get(span_id).events == [(5, "arb-loss")]


def test_queries_select_children_ancestors_root():
    tracer = SpanTracer(clock=lambda: 0)
    a = tracer.begin("a", "bus", node=1, at=0)
    b = tracer.begin("b", "fd", node=2, parent=a, at=1)
    c = tracer.begin("c", "fd", node=2, parent=b, at=2)
    assert [s.span_id for s in tracer.select(category="fd")] == [b, c]
    assert [s.span_id for s in tracer.select(node=1)] == [a]
    assert [s.span_id for s in tracer.select(name="c")] == [c]
    assert [s.span_id for s in tracer.children(a)] == [b]
    assert [s.span_id for s in tracer.ancestors(c)] == [b, a]  # nearest first
    assert tracer.root(c).span_id == a
    assert tracer.root(a).span_id == a


def test_children_index_follows_spans_added_between_queries():
    tracer = SpanTracer(clock=lambda: 0)
    a = tracer.begin("a", "x", at=0)
    b = tracer.begin("b", "x", parent=a, at=1)
    assert [s.span_id for s in tracer.children(a)] == [b]
    tracer.children(a).clear()  # the answer is the caller's own list
    c = tracer.begin("c", "x", parent=a, at=2)
    assert [s.span_id for s in tracer.children(a)] == [b, c]
    assert tracer.children(c) == []
    tracer.clear()
    tracer.begin("a", "x", at=0)
    tracer.begin("d", "x", at=1)
    tracer.begin("e", "x", parent=1, at=2)
    assert tracer.children(0) == []
    assert [s.name for s in tracer.children(1)] == ["e"]


def test_open_spans_summary_and_clear():
    tracer = SpanTracer(clock=lambda: 0)
    a = tracer.begin("a", "bus", at=0)
    tracer.begin("a", "bus", at=3)
    tracer.end(a, at=2)
    assert len(tracer.open_spans()) == 1
    assert tracer.summary() == {("bus", "a"): 2}
    assert tracer.max_time() == 3
    tracer.enabled = True
    tracer.clear()
    assert len(tracer) == 0 and tracer.enabled


def test_span_to_dict_is_jsonable():
    import json

    tracer = SpanTracer(clock=lambda: 0)
    span_id = tracer.begin("a", "bus", node=1, at=0, mid="M")
    tracer.event(span_id, "e", at=1)
    tracer.end(span_id, at=2)
    payload = span_to_dict(tracer.get(span_id))
    assert json.loads(json.dumps(payload)) == {
        "span_id": span_id,
        "name": "a",
        "category": "bus",
        "node": 1,
        "start": 0,
        "end": 2,
        "parent": None,
        "attrs": {"mid": "M"},
        "events": [[1, "e"]],
    }


def test_node_set_attrs_project_to_ascending_id_lists():
    from repro.util.sets import WIDE_MAX_CAPACITY, NodeSet

    tracer = SpanTracer(clock=lambda: 0)
    span_id = tracer.begin("can.rx", "bus", at=0)
    tracer.end(span_id, at=0, receivers=NodeSet([7, 0, 130], WIDE_MAX_CAPACITY))
    assert 130 in tracer.get(span_id).attrs["receivers"]
    assert span_to_dict(tracer.get(span_id))["attrs"] == {"receivers": [0, 7, 130]}
    assert "receivers=[0, 7, 130]" in render_span_tree(tracer, span_id)[0]


def test_render_span_tree_indents_by_causal_depth():
    tracer = SpanTracer(clock=lambda: 0)
    a = tracer.begin("root", "x", node=0, at=0)
    b = tracer.begin("mid", "x", node=1, parent=a, at=1)
    tracer.begin("leaf", "x", node=2, parent=b, at=2)
    lines = render_span_tree(tracer, a)
    assert len(lines) == 3
    assert "root" in lines[0] and "mid" in lines[1] and "leaf" in lines[2]
    # Each causal level is indented two columns deeper than its parent.
    assert lines[1].index("mid") - lines[0].index("root") == 2
    assert lines[2].index("leaf") - lines[1].index("mid") == 2


def test_null_tracer_is_shared_and_disabled():
    assert not NULL_TRACER.enabled
    # The no-op entry points must be safe on the shared instance.
    NULL_TRACER.end(None)
    NULL_TRACER.event(None, "x")


# -- stack integration ----------------------------------------------------------------


@pytest.fixture(scope="module")
def crashed_net():
    """A bootstrapped 4-node network whose node 2 crashed, spans enabled."""
    net = CanelyNetwork(node_count=4, spans=True)
    (
        net.scenario(seed=7)
        .bootstrap()
        .crash(2, at=ms(2))
        .run_until_settled()
    )
    return net


def test_spans_disabled_by_default_records_nothing():
    net = CanelyNetwork(node_count=4)
    net.scenario().bootstrap().crash(2, at=ms(2)).run_until_settled()
    assert not net.sim.spans.enabled
    assert len(net.sim.spans) == 0


def test_crash_scenario_covers_the_span_taxonomy(crashed_net):
    names = {name for _category, name in crashed_net.sim.spans.summary()}
    assert {
        "msh.join",
        "msh.cycle",
        "fd.surveillance",
        "fd.els",
        "fd.detect",
        "can.frame",
        "can.tx",
        "can.rx",
        "fda.nty",
        "rha.timer",
        "rha.execution",
        "msh.view",
        "msh.change",
        "node.crash",
    } <= names


def test_detection_tree_roots_at_the_surveillance_timer(crashed_net):
    spans = crashed_net.sim.spans
    detects = spans.select(
        name="fd.detect", predicate=lambda s: s.attrs.get("failed") == 2
    )
    assert detects, "the crash of node 2 must be detected"
    # Every survivor's detection is caused by the one surveillance deadline
    # their group shared for node 2.
    assert {detect.node for detect in detects} == {0, 1, 3}
    assert len({detect.parent for detect in detects}) == 1
    detect = detects[0]
    parent = spans.get(detect.parent)
    assert parent.name == "fd.surveillance" and parent.node == -1
    assert parent.attrs["tag"] == 2
    assert parent.attrs["outcome"] == "fired"
    assert sorted(parent.attrs["watchers"]) == [0, 1, 3]
    # ... and that deadline was armed by the delivery of node 2's own last
    # life-sign: walking further up the chain always reaches node 2 traffic.
    armed_by = spans.get(parent.parent)
    assert armed_by.name == "can.rx"
    assert all(node in armed_by.attrs["receivers"] for node in (0, 1, 3))
    assert any(
        span.node == 2 and span.name == "fd.els"
        for span in spans.ancestors(detect.span_id)
    )


def test_failure_sign_fans_out_to_every_survivor(crashed_net):
    spans = crashed_net.sim.spans
    nty_nodes = {
        span.node
        for span in spans.select(name="fda.nty")
        if span.attrs.get("failed") == 2
    }
    assert nty_nodes == {0, 1, 3}
    for span in spans.select(name="fda.nty"):
        if span.attrs.get("failed") != 2:
            continue
        ancestors = spans.ancestors(span.span_id)
        ancestor_names = [a.name for a in ancestors]
        # Delivered over the rx span of a physical transmission — one per
        # frame, naming this survivor among who took it.
        assert ancestor_names[0] == "can.rx"
        assert ancestors[0].node == -1
        assert span.node in ancestors[0].attrs["receivers"]
        assert "can.tx" in ancestor_names
        assert "fd.detect" in ancestor_names


def test_routine_spans_are_per_frame_not_per_receiver(crashed_net):
    spans = crashed_net.sim.spans
    frames = crashed_net.bus.stats.physical_frames
    assert len(spans.select(name="can.rx")) == frames
    assert len(spans.select(name="can.tx")) == frames
    assert not spans.select(name="can.nty")
    # The span and the row of a frame carry the same set.
    rows = crashed_net.sim.trace.select(category="bus.deliver")
    assert [
        (span.start, span.attrs["receivers"])
        for span in spans.select(name="can.rx")
    ] == [(record.time, record.data["receivers"]) for record in rows]


def test_children_index_equals_the_linear_scan(crashed_net):
    spans = crashed_net.sim.spans
    for span in spans:
        assert spans.children(span.span_id) == [
            other for other in spans if other.parent == span.span_id
        ]


def test_surveillance_timers_record_their_outcome(crashed_net):
    outcomes = {
        span.attrs.get("outcome")
        for span in crashed_net.sim.spans.select(name="fd.surveillance")
        if span.end is not None
    }
    # Life-sign arrivals cancel-and-rearm; the detection fires one.
    assert outcomes == {"fired", "cancelled"}


def test_crashed_node_queue_spans_are_accounted(crashed_net):
    spans = crashed_net.sim.spans
    crashed_frames = [
        span
        for span in spans.select(name="can.frame", node=2)
        if span.attrs.get("outcome") == "crashed"
    ]
    # Whatever node 2 still queued when it died is closed, not leaked.
    for span in crashed_frames:
        assert span.end is not None
    assert not [s for s in spans.open_spans() if s.name == "fd.detect"]


def test_span_ids_are_deterministic_across_same_seed_runs():
    def run():
        net = CanelyNetwork(node_count=4, spans=True)
        (
            net.scenario(seed=3)
            .bootstrap()
            .crash(1, at=ms(2))
            .run_until_settled()
        )
        return [span_to_dict(span) for span in net.sim.spans]

    assert run() == run()
