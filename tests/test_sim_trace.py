"""Unit tests for the trace recorder."""

import io
import json

import pytest

from repro.sim.trace import JsonlSink, TraceRecord, TraceRecorder, record_to_dict


def test_record_and_len():
    trace = TraceRecorder()
    trace.record(1, "bus.tx", node=0, bits=100)
    assert len(trace) == 1


def test_select_exact_category():
    trace = TraceRecorder()
    trace.record(1, "bus.tx")
    trace.record(2, "bus.deliver")
    assert len(trace.select(category="bus.tx")) == 1


def test_select_prefix_category():
    trace = TraceRecorder()
    trace.record(1, "bus.tx")
    trace.record(2, "bus.deliver")
    trace.record(3, "msh.view")
    assert len(trace.select(category="bus.")) == 2


def test_select_by_node():
    trace = TraceRecorder()
    trace.record(1, "bus.deliver", node=3)
    trace.record(2, "bus.deliver", node=4)
    assert [r.node for r in trace.select(node=3)] == [3]


def test_select_with_predicate():
    trace = TraceRecorder()
    trace.record(1, "bus.tx", bits=50)
    trace.record(2, "bus.tx", bits=150)
    heavy = trace.select(category="bus.tx", predicate=lambda r: r.data["bits"] > 100)
    assert [r.time for r in heavy] == [2]


def test_count():
    trace = TraceRecorder()
    for _ in range(3):
        trace.record(1, "node.crash")
    assert trace.count("node.crash") == 3


def test_iteration_preserves_order():
    trace = TraceRecorder()
    trace.record(5, "a")
    trace.record(3, "b")  # append order, not time order
    assert [r.category for r in trace] == ["a", "b"]


def test_payload_accessible():
    trace = TraceRecorder()
    trace.record(1, "bus.tx", node=2, mid="m", kind="none")
    record = trace.select(category="bus.tx")[0]
    assert record.data["kind"] == "none"
    assert record.node == 2


def test_select_time_window():
    trace = TraceRecorder()
    for t in range(10):
        trace.record(t, "bus.tx")
    bounded = trace.select(category="bus.tx", start=3, end=6)
    assert [r.time for r in bounded] == [3, 4, 5, 6]


def test_window_is_inclusive_and_cross_category():
    trace = TraceRecorder()
    trace.record(1, "a")
    trace.record(2, "b")
    trace.record(3, "c")
    assert [r.category for r in trace.window(2, 3)] == ["b", "c"]


def test_count_prefix():
    trace = TraceRecorder()
    trace.record(1, "bus.tx")
    trace.record(2, "bus.deliver")
    trace.record(3, "msh.view")
    assert trace.count("bus.") == 2
    assert trace.count("bus.tx") == 1
    assert trace.count("nothing") == 0


def test_categories_breakdown():
    trace = TraceRecorder()
    trace.record(1, "b")
    trace.record(2, "a")
    trace.record(3, "a")
    assert trace.categories() == {"a": 2, "b": 1}


def test_last_time_tracks_maximum():
    trace = TraceRecorder()
    assert trace.last_time == 0
    trace.record(7, "a")
    trace.record(3, "b")  # out-of-order append must not lower it
    assert trace.last_time == 7


def test_select_category_and_node_combined():
    trace = TraceRecorder()
    trace.record(1, "bus.deliver", node=0)
    trace.record(2, "bus.deliver", node=1)
    trace.record(3, "bus.tx", node=1)
    hits = trace.select(category="bus.deliver", node=1)
    assert [(r.time, r.node) for r in hits] == [(2, 1)]


def test_prefix_select_preserves_insertion_order():
    trace = TraceRecorder()
    trace.record(1, "bus.tx")
    trace.record(2, "bus.deliver")
    trace.record(3, "bus.tx")
    assert [r.time for r in trace.select(category="bus.")] == [1, 2, 3]


# -- sinks and export ---------------------------------------------------------


def test_remove_sink_stops_streaming():
    trace = TraceRecorder()
    seen = []
    sink = trace.add_sink(lambda record: seen.append(record.time))
    trace.record(1, "a")
    trace.remove_sink(sink)
    trace.record(2, "a")
    assert seen == [1]


def test_a_category_sink_gets_only_its_rows():
    trace = TraceRecorder()
    trace.record(1, "a")  # interned before the sink: rerouted on attach
    seen = []
    trace.add_sink(lambda record: seen.append(record.time), categories=("a", "c"))
    trace.record(2, "a")
    trace.record(3, "b")
    trace.record(4, "c")  # interned after the sink: routed on intern
    assert seen == [2, 4]


def test_sinks_get_a_row_in_attachment_order():
    trace = TraceRecorder()
    order = []
    trace.add_sink(lambda record: order.append("all"))
    trace.add_sink(lambda record: order.append("b"), categories={"b"})
    trace.add_sink(lambda record: order.append("all-2"))
    trace.record(1, "a")
    trace.record(2, "b")
    assert order == ["all", "all-2", "all", "b", "all-2"]


def test_a_sink_detached_mid_row_does_not_hide_the_row_from_later_sinks():
    trace = TraceRecorder()
    seen = []

    def a(record):
        seen.append(("a", record.time))
        trace.remove_sink(a)

    trace.add_sink(a)
    trace.add_sink(lambda record: seen.append(("b", record.time)))
    trace.record(1, "x")
    trace.record(2, "x")
    assert seen == [("a", 1), ("b", 1), ("b", 2)]


def test_a_sink_added_mid_row_starts_with_the_next_row():
    trace = TraceRecorder()
    seen = []

    def late(record):
        seen.append(("late", record.time))

    def adder(record):
        if record.time == 1:
            trace.add_sink(late, categories=("x",))

    trace.add_sink(adder)
    trace.record(1, "x")
    trace.record(2, "x")
    trace.record(3, "y")
    assert seen == [("late", 2)]


def test_remove_sink_takes_out_one_subscription():
    trace = TraceRecorder()
    seen = []
    sink = seen.append
    trace.add_sink(sink, categories=("a",))
    trace.add_sink(sink)
    trace.remove_sink(sink)
    trace.remove_sink(lambda record: None)  # never added: ignored
    trace.record(1, "a")
    trace.record(2, "b")
    assert [r.time for r in seen] == [1, 2]


def test_record_to_dict_projects_payload():
    trace = TraceRecorder()
    trace.record(5, "msh.view", node=1, members={3, 1, 2})
    out = record_to_dict(next(iter(trace)))
    assert out["time"] == 5 and out["node"] == 1
    assert sorted(out["data"]["members"]) == [1, 2, 3]


def test_export_jsonl_round_trips():
    trace = TraceRecorder()
    trace.record(1, "a", node=0, bits=10)
    trace.record(2, "b", node=1)
    buffer = io.StringIO()
    assert trace.export_jsonl(buffer) == 2
    lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert [entry["category"] for entry in lines] == ["a", "b"]
    assert lines[0]["data"] == {"bits": 10}


def test_jsonl_sink_streams_live(tmp_path):
    path = tmp_path / "trace.jsonl"
    trace = TraceRecorder()
    with JsonlSink(str(path)) as sink:
        trace.add_sink(sink)
        for t in range(4):
            trace.record(t, "a")
            assert sink.records_written == t + 1
    assert len(path.read_text().splitlines()) == 4


def test_jsonl_sink_context_manager_closes_on_exception(tmp_path):
    """The ``with`` block closes (and flushes) the file even when the body
    raises, so a crashed campaign still leaves a readable JSONL tail."""
    path = tmp_path / "trace.jsonl"
    trace = TraceRecorder()
    trace.record(1, "bus.tx", node=0)
    with pytest.raises(RuntimeError, match="mid-run"):
        with JsonlSink(str(path)) as sink:
            sink(next(iter(trace)))
            raise RuntimeError("mid-run")
    assert sink._handle.closed
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["category"] == "bus.tx"


def test_failing_sink_does_not_corrupt_recorder():
    """A sink raising mid-record loses nothing: the record is already
    stored and indexed, and the recorder keeps working once the broken
    sink is removed."""
    trace = TraceRecorder()

    def broken(_record):
        raise IOError("disk full")

    trace.add_sink(broken)
    with pytest.raises(IOError):
        trace.record(1, "bus.tx", node=0)
    trace.remove_sink(broken)
    trace.record(2, "bus.deliver", node=1)
    assert len(trace) == 2
    assert [r.category for r in trace] == ["bus.tx", "bus.deliver"]
    assert len(trace.select(category="bus.tx")) == 1
    assert len(trace.select(node=1)) == 1
    assert trace.last_time == 2


# -- the store against a plain-list oracle ------------------------------------
#
# One mixed workload goes into the recorder and, as plain tuples, into a
# list; every public accessor must agree with the obvious comprehension
# over that list: same records, same values, same order.

_ROWS = [
    (1, "bus.tx", 0, {"bits": 100, "mid": "m0"}),
    (2, "bus.deliver", 1, {"mid": "m0"}),
    (2, "bus.deliver", 2, {"mid": "m0"}),
    (3, "bus.deliver", 0, {"mid": "m1", "remote": True}),
    (5, "msh.view", 1, {"members": [0, 1, 2]}),
    (4, "fd.nty", 2, {}),  # out-of-order append
    (7, "bus.tx", 2, {"bits": 60, "mid": "m2"}),
]


def _mixed_workload(trace):
    for index, (time, category, node, data) in enumerate(_ROWS):
        if index % 2:
            trace.record_row(time, category, node, dict(data))
        else:
            trace.record(time, category, node=node, **data)
    return trace


def _as_rows(records):
    return [(r.time, r.category, r.node, r.data) for r in records]


def _oracle(category=None, node=None, start=None, end=None, predicate=None):
    def matches(row):
        time, row_category, row_node, _data = row
        if category is not None and not (
            row_category.startswith(category)
            if category.endswith(".")
            else row_category == category
        ):
            return False
        if node is not None and row_node != node:
            return False
        if start is not None and time < start:
            return False
        if end is not None and time > end:
            return False
        return predicate is None or predicate(TraceRecord(*row))

    return [row for row in _ROWS if matches(row)]


def test_iteration_matches_list_oracle():
    trace = _mixed_workload(TraceRecorder())
    assert len(trace) == len(_ROWS)
    assert _as_rows(trace) == _ROWS


def test_select_matches_list_oracle():
    trace = _mixed_workload(TraceRecorder())
    queries = [
        dict(category="bus.deliver"),
        dict(category="bus."),
        dict(node=2),
        dict(category="bus.deliver", node=0),
        dict(start=2, end=4),
        dict(category="bus.", predicate=lambda r: r.data.get("bits", 0) > 50),
        dict(category="absent"),
        dict(node=99),
    ]
    for query in queries:
        assert _as_rows(trace.select(**query)) == _oracle(**query), query


def test_count_categories_window_match_list_oracle():
    trace = _mixed_workload(TraceRecorder())
    for category in ("bus.tx", "bus.", "msh.view", "absent", "absent."):
        assert trace.count(category) == len(_oracle(category=category))
    names = sorted({row[1] for row in _ROWS})
    assert list(trace.categories().items()) == [
        (name, len(_oracle(category=name))) for name in names
    ]
    assert _as_rows(trace.window(2, 5)) == _oracle(start=2, end=5)
    assert trace.last_time == 7


def test_category_columns_match_list_oracle():
    trace = _mixed_workload(TraceRecorder())
    for category in ("bus.deliver", "bus.tx", "absent"):
        times, nodes, payloads = trace.category_columns(category)
        want = _oracle(category=category)
        assert list(times) == [row[0] for row in want]
        assert list(nodes) == [row[2] for row in want]
        assert payloads == [row[3] for row in want]


def test_export_jsonl_writes_one_projected_line_per_record():
    trace = _mixed_workload(TraceRecorder())
    buffer = io.StringIO()
    assert trace.export_jsonl(buffer) == len(_ROWS)
    assert buffer.getvalue() == "".join(
        json.dumps(record_to_dict(record)) + "\n" for record in trace
    )


def test_sinks_observe_real_records():
    seen = []
    trace = TraceRecorder()
    trace.add_sink(lambda record: seen.append(record_to_dict(record)))
    _mixed_workload(trace)
    assert seen == [record_to_dict(r) for r in trace]


def test_index_extends_incrementally():
    """Queries interleaved with recording: the lazy index must pick up
    rows appended after the first query."""
    trace = TraceRecorder()
    trace.record(1, "a", node=0)
    assert [r.time for r in trace.select(category="a")] == [1]
    trace.record(2, "a", node=1)
    trace.record(3, "b", node=0)
    assert trace.count("a") == 2
    assert [r.time for r in trace.select(category="a")] == [1, 2]
    assert [r.time for r in trace.select(node=0)] == [1, 3]
    assert trace.categories() == {"a": 2, "b": 1}
