"""Chrome trace-event export, validator and MSC renderer tests."""

import json

import pytest

import pins
from repro.core.stack import CanelyNetwork
from repro.obs.export import (
    CHROME_CATEGORIES,
    export_chrome_trace,
    render_msc,
    validate_chrome_trace,
)
from repro.obs.spans import SpanTracer
from repro.sim.clock import ms


def _crash_run(seed=0):
    net = CanelyNetwork(node_count=4, spans=True)
    net.scenario(seed=seed).bootstrap().crash(2, at=ms(2)).run_until_settled()
    return net


def chrome_events(tracer, flows=False):
    """The exported payload's event list, read back."""
    return json.loads(export_chrome_trace(tracer, flows=flows))["traceEvents"]


@pytest.fixture(scope="module")
def net():
    return _crash_run()


# -- chrome trace-event export --------------------------------------------------------


def test_export_is_byte_identical_across_same_seed_runs(tmp_path):
    """The acceptance property: two runs with the same seed export
    byte-identical Chrome trace files (diffable, golden-pinnable)."""
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    export_chrome_trace(_crash_run(seed=5).sim.spans, str(first))
    export_chrome_trace(_crash_run(seed=5).sim.spans, str(second))
    assert first.read_bytes() == second.read_bytes()


def test_export_validates_and_is_well_formed_json(net):
    text = export_chrome_trace(net.sim.spans)
    payload = json.loads(text)
    assert payload["displayTimeUnit"] == "ms"
    # The file says which span taxonomy it holds.
    assert payload["otherData"] == {"format": "repro.spans/2"}
    assert validate_chrome_trace(text) == []
    assert validate_chrome_trace(payload) == []
    assert validate_chrome_trace(payload["traceEvents"]) == []


def test_events_map_nodes_to_processes_and_layers_to_threads(net):
    events = chrome_events(net.sim.spans)
    metadata = [e for e in events if e["ph"] == "M"]
    process_names = {
        e["pid"]: e["args"]["name"]
        for e in metadata
        if e["name"] == "process_name"
    }
    # Node n is pid n + 1; pid 0 is the bus: the per-frame ``can.rx`` and
    # the per-group ``fd.surveillance`` spans belong to no single node.
    assert process_names[3] == "node 2"
    assert process_names[0] == "bus"
    assert set(process_names.values()) == {"bus"} | {f"node {n}" for n in range(4)}
    assert {e["name"] for e in events if e["ph"] == "X" and e["pid"] == 0} == {
        "can.rx",
        "fd.surveillance",
    }
    thread_names = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in metadata
        if e["name"] == "thread_name"
    }
    assert set(thread_names.values()) <= set(CHROME_CATEGORIES)
    for event in events:
        if event["ph"] != "X":
            continue
        assert event["dur"] >= 0
        assert event["args"]["node"] == event["pid"] - 1
        category = CHROME_CATEGORIES[event["tid"]]
        assert event["cat"] == category
        assert thread_names[(event["pid"], event["tid"])] == category


def test_node_sets_are_written_as_ascending_id_lists(net):
    text = export_chrome_trace(net.sim.spans)
    assert "NodeSet(" not in text
    events = json.loads(text)["traceEvents"]
    received = [e["args"]["receivers"] for e in events if e.get("name") == "can.rx"]
    watched = [
        e["args"]["watchers"] for e in events if e.get("name") == "fd.surveillance"
    ]
    assert received and watched
    for ids in received:
        assert ids == sorted(ids) and set(ids) <= {0, 1, 2, 3}
    for ids in watched:
        assert ids and set(ids) <= {0, 1, 2, 3}


def test_events_come_in_the_documented_total_order(net):
    """Track, then time, then span id, then phase — the key each event is
    built with must order the list exactly as reading it back would."""
    events = [
        e for e in chrome_events(net.sim.spans, flows=True) if e["ph"] != "M"
    ]
    assert events == sorted(
        events,
        key=lambda e: (
            e["pid"],
            e["tid"],
            e["ts"],
            e.get("args", {}).get("span_id", e.get("id", -1)),
            e["ph"],
        ),
    )


def test_timestamps_are_microseconds(net):
    crash_span = net.sim.spans.select(name="node.crash", node=2)[0]
    events = chrome_events(net.sim.spans)
    crash_events = [e for e in events if e.get("name") == "node.crash"]
    assert crash_events[0]["ts"] == crash_span.start / 1000.0


def test_open_spans_are_closed_at_trace_end_and_tagged(net):
    spans = net.sim.spans
    assert spans.open_spans(), "the crashed node leaves open spans"
    close_at = spans.max_time() / 1000.0
    events = chrome_events(spans)
    open_events = [
        e for e in events if e["ph"] == "X" and e["args"].get("open")
    ]
    assert len(open_events) == len(spans.open_spans())
    for event in open_events:
        assert event["ts"] + event["dur"] == pytest.approx(close_at)


def test_flow_events_pair_up_and_validate(net):
    events = chrome_events(net.sim.spans, flows=True)
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert starts and len(starts) == len(finishes)
    assert {e["id"] for e in starts} == {e["id"] for e in finishes}
    assert validate_chrome_trace(events) == []


def test_export_writes_the_file(tmp_path, net):
    path = tmp_path / "trace.json"
    text = export_chrome_trace(net.sim.spans, str(path))
    assert path.read_text() == text + "\n"


# -- validator on synthetic payloads --------------------------------------------------


def test_validator_flags_missing_keys():
    problems = validate_chrome_trace([{"pid": 0, "tid": 0}])
    assert any("missing 'ph'" in p for p in problems)
    problems = validate_chrome_trace([{"ph": "X", "pid": 0, "tid": 0}])
    assert any("missing 'ts'" in p for p in problems)


def test_validator_flags_negative_duration_and_ts_regression():
    events = [
        {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 5.0, "dur": -1},
        {"name": "b", "ph": "X", "pid": 0, "tid": 0, "ts": 4.0, "dur": 0},
    ]
    problems = validate_chrome_trace(events)
    assert any("negative dur" in p for p in problems)
    assert any("not increasing" in p for p in problems)


def test_validator_flags_unbalanced_begin_end():
    events = [
        {"name": "a", "ph": "B", "pid": 0, "tid": 0, "ts": 1.0},
        {"name": "a", "ph": "E", "pid": 0, "tid": 0, "ts": 2.0},
        {"name": "b", "ph": "E", "pid": 0, "tid": 0, "ts": 3.0},
        {"name": "c", "ph": "B", "pid": 1, "tid": 0, "ts": 1.0},
    ]
    problems = validate_chrome_trace(events)
    assert any("'E' without matching 'B'" in p for p in problems)
    assert any("unmatched 'B'" in p for p in problems)


def test_validator_flags_flow_finish_without_start():
    events = [{"name": "f", "ph": "f", "pid": 0, "tid": 0, "ts": 1.0, "id": 9}]
    assert any(
        "flow finish without start" in p
        for p in validate_chrome_trace(events)
    )


def test_validator_strict_ts_rejects_ties():
    events = [
        {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 1.0, "dur": 0},
        {"name": "b", "ph": "X", "pid": 0, "tid": 0, "ts": 1.0, "dur": 0},
    ]
    assert validate_chrome_trace(events) == []
    assert validate_chrome_trace(events, strict_ts=True)


def test_validator_flags_a_payload_without_trace_events():
    assert validate_chrome_trace('{"displayTimeUnit": "ms"}') == [
        "missing or non-list 'traceEvents'"
    ]
    assert validate_chrome_trace({"traceEvents": 3}) == [
        "missing or non-list 'traceEvents'"
    ]


def test_validator_flags_an_x_event_without_a_numeric_dur():
    events = [
        {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 1.0},
        {"name": "b", "ph": "X", "pid": 0, "tid": 0, "ts": 2.0, "dur": "x"},
    ]
    assert validate_chrome_trace(events) == [
        "event #0 ('a'): dur None not a number",
        "event #1 ('b'): dur 'x' not a number",
    ]


def test_validator_flags_a_non_numeric_ts():
    events = [
        {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": "a", "dur": 1},
        {"name": "f", "ph": "s", "pid": 0, "tid": 0, "ts": True, "id": 1},
    ]
    assert validate_chrome_trace(events) == [
        "event #0 (X): non-numeric 'ts' 'a'",
        "event #1 (s): non-numeric 'ts' True",
    ]


def test_validator_flags_an_event_that_is_not_an_object():
    assert validate_chrome_trace("[3]") == ["event #0: not an object"]


@pytest.mark.parametrize(
    "text", ["not json", '{"traceEvents": [', b"\xff"],
    ids=["garbage", "torn", "not-utf8"],
)
def test_validator_reports_text_that_is_not_json(text):
    [problem] = validate_chrome_trace(text)
    assert problem.startswith("not JSON: ")


def test_empty_tracer_exports_empty_but_valid():
    tracer = SpanTracer(clock=lambda: 0)
    text = export_chrome_trace(tracer)
    assert json.loads(text)["traceEvents"] == []
    assert validate_chrome_trace(text) == []


def test_bus_global_spans_land_on_pid_zero():
    tracer = SpanTracer(clock=lambda: 0)
    span_id = tracer.begin("can.tx", "bus", at=0)  # node defaults to -1
    tracer.end(span_id, at=5)
    events = chrome_events(tracer)
    process = [e for e in events if e.get("name") == "process_name"]
    assert process[0]["pid"] == 0
    assert process[0]["args"]["name"] == "bus"
    assert [e["pid"] for e in events if e["ph"] == "X"] == [0]


def test_an_open_span_lasts_until_its_last_point_event():
    """An open span is closed at the trace's end, which its own point
    events count towards: the event may not lie past the span."""
    tracer = SpanTracer(clock=lambda: 0)
    frame = tracer.begin("can.tx", "can", node=0, at=0)
    tracer.event(frame, "arb-loss", at=5000)
    assert tracer.max_time() == 5000
    [event] = [e for e in chrome_events(tracer) if e["ph"] == "X"]
    assert (event["ts"], event["dur"]) == (0.0, 5.0)
    assert event["args"]["events"] == [[5000, "arb-loss"]]
    assert event["args"]["open"] is True


@pytest.mark.parametrize("flows", [False, True], ids=["plain", "flows"])
def test_repro_spans_chrome_output_matches_its_pin(flows):
    pins.assert_hold(
        "tests/golden/spans_seed0_chrome_flows.json" if flows
        else "tests/golden/spans_seed0_chrome.json"
    )


# -- message sequence chart -----------------------------------------------------------


def test_msc_renders_crash_and_bus_rows(net):
    crash = net.sim.trace.select(category="node.crash", node=2)[0]
    lines = render_msc(
        net.sim.trace, start=crash.time - ms(1), end=crash.time + ms(30)
    )
    header = lines[0]
    for node_id in range(4):
        assert f"n{node_id}" in header
    body = "\n".join(lines[1:])
    assert "crash" in body and "X" in body
    assert "(rtr)" in body  # life-sign remote frames
    assert "o" in body and ">" in body  # sender and receivers


def test_msc_empty_window():
    net = CanelyNetwork(node_count=3)
    assert render_msc(net.sim.trace) == ["(no traffic in window)"]


def test_msc_respects_node_selection_and_max_rows(net):
    crash = net.sim.trace.select(category="node.crash", node=2)[0]
    lines = render_msc(
        net.sim.trace,
        nodes=[0, 2],
        start=crash.time - ms(1),
        end=crash.time + ms(30),
        max_rows=3,
    )
    assert "n1" not in lines[0] and "n3" not in lines[0]
    assert len(lines) == 1 + 3 + 1  # header + rows + truncation note
    assert "truncated" in lines[-1]
