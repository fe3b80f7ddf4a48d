"""Span and trace exporters: Chrome trace-event JSON and text MSC.

``chrome_trace_events`` projects the causal span trace onto the Chrome
trace-event format (the JSON consumed by Perfetto / ``chrome://tracing``):
one *process* per node (pid 0 is the bus / global track, pid ``n + 1`` is
node ``n``), one *thread* per protocol layer, and one complete (``"X"``)
event per span. Parent links can additionally be emitted as flow events
(``"s"``/``"f"``) so the causal tree renders as arrows across tracks.

Output is fully deterministic for a seeded run: spans are visited in id
order, events are sorted on a total key, and the JSON is serialized with
sorted keys — two runs with the same seed produce byte-identical files,
which is what lets campaign artifacts be diffed and golden-pinned. The
payload names the span taxonomy it holds (:data:`SPAN_FORMAT`, under
``otherData.format``); node-set attributes (a ``can.rx``'s ``receivers``)
are written as ascending id lists.

``render_msc`` renders a text message sequence chart from the flat trace —
one lifeline column per node, one row per bus transmission, crash or view
install — for examples, docs and quick terminal diagnosis.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.spans import SpanTracer, plain_attrs
from repro.sim.trace import TraceRecorder, deliveries

__all__ = [
    "CHROME_CATEGORIES",
    "chrome_trace_events",
    "export_chrome_trace",
    "render_msc",
    "validate_chrome_trace",
]

#: Layer -> Chrome "thread" id, in stack order (top of the stack first).
CHROME_CATEGORIES: Tuple[str, ...] = (
    "node",
    "msh",
    "rha",
    "fd",
    "fda",
    "llc",
    "timers",
    "can",
    "bus",
)


#: The span taxonomy a Chrome payload says it holds: one ``can.rx`` per frame,
#: one ``fd.surveillance`` per group (unmarked files: one per receiver, <= 3.0).
SPAN_FORMAT = "repro.spans/2"


def _ts(ticks: int) -> float:
    """Kernel ticks (ns) to trace-event microseconds."""
    return ticks / 1000.0


def chrome_trace_events(
    tracer: SpanTracer, flows: bool = False
) -> List[Dict[str, Any]]:
    """The span trace as a list of Chrome trace-event dicts.

    Spans still open (e.g. a deadline armed when the run stopped) are closed
    at the trace's maximum timestamp and tagged ``"open": true``. With
    ``flows=True``, every cross-track parent link becomes an ``s``/``f``
    flow pair so the viewer draws causal arrows.
    """
    close_at = tracer.max_time()
    thread_ids = {category: tid for tid, category in enumerate(CHROME_CATEGORIES)}
    tracks: Dict[Tuple[int, int], str] = {}
    events: List[Dict[str, Any]] = []
    keys: List[tuple] = []  # each event's sort key, worked out as it is built
    for span in tracer:
        pid = span.node + 1
        tid = thread_ids.get(span.category, len(CHROME_CATEGORIES))
        tracks.setdefault((pid, tid), span.category)
        end = close_at if span.end is None else span.end
        args: Dict[str, Any] = {
            "span_id": span.span_id,
            "node": span.node,
        }
        if span.parent is not None:
            args["parent"] = span.parent
        args.update(plain_attrs(span))
        if span.events:
            args["events"] = [[time, label] for time, label in span.events]
        if span.end is None:
            args["open"] = True
        start = _ts(span.start)
        keys.append((pid, tid, start, span.span_id, "X"))
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": start,
                "dur": _ts(end - span.start),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        if flows and span.parent is not None:
            parent = tracer.get(span.parent)
            parent_pid = parent.node + 1
            parent_tid = thread_ids.get(
                parent.category, len(CHROME_CATEGORIES)
            )
            if (parent_pid, parent_tid) != (pid, tid):
                parent_end = close_at if parent.end is None else parent.end
                flow = {
                    "name": "causal",
                    "cat": "causal",
                    "id": span.span_id,
                    "pid": parent_pid,
                    "tid": parent_tid,
                    "ts": _ts(min(parent_end, span.start)),
                }
                keys.append((parent_pid, parent_tid, flow["ts"], span.span_id, "s"))
                events.append(dict(flow, ph="s"))
                keys.append((pid, tid, start, span.span_id, "f"))
                events.append(dict(flow, ph="f", bp="e", pid=pid, tid=tid, ts=start))
    # Deterministic total order: track, then time, then span id.
    order = sorted(range(len(events)), key=keys.__getitem__)
    metadata: List[Dict[str, Any]] = []
    for pid in sorted({pid for pid, _tid in tracks}):
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "bus" if pid == 0 else f"node {pid - 1}"},
            }
        )
    for (pid, tid), category in sorted(tracks.items()):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": category},
            }
        )
    return metadata + [events[index] for index in order]


def export_chrome_trace(
    tracer: SpanTracer, path: Optional[str] = None, flows: bool = False
) -> str:
    """Serialize the span trace to Chrome trace-event JSON.

    Returns the JSON text; additionally writes it to ``path`` when given.
    Serialization is canonical (sorted keys, fixed separators), so equal
    span traces produce byte-identical files.
    """
    payload = {
        "displayTimeUnit": "ms",
        "otherData": {"format": SPAN_FORMAT},
        "traceEvents": chrome_trace_events(tracer, flows=flows),
    }
    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
    return text


def validate_chrome_trace(
    events: Any, strict_ts: bool = False
) -> List[str]:
    """Check a trace-event payload against the format's invariants.

    ``events`` may be the JSON text, the payload dict, or the raw event
    list. Checks: required keys per phase, non-negative durations,
    non-decreasing (``strict_ts``: strictly increasing) ``ts`` within each
    ``(pid, tid)`` track, matched ``B``/``E`` pairs per track, and every
    flow finish (``f``) carrying a flow start (``s``) with the same id no
    later in time (viewers bind flows by timestamp, not document order).
    Returns the list of problems — empty means the payload validates.
    """
    if isinstance(events, (str, bytes)):
        events = json.loads(events)
    if isinstance(events, dict):
        events = events.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    number = (int, float)  # by exact type: a JSON true is no timestamp
    problems: List[str] = []
    last_ts: Dict[Tuple[int, int], float] = {}
    open_begins: Dict[Tuple[int, int], int] = {}
    # Flow starts are gathered up front: document order within the event
    # list is track-major, so a finish may legitimately precede its start.
    flow_starts: Dict[Any, float] = {}
    for event in events:
        if isinstance(event, dict) and event.get("ph") == "s":
            fid = event.get("id")
            ts = event.get("ts", 0)
            if type(ts) in number and (fid not in flow_starts or ts < flow_starts[fid]):
                flow_starts[fid] = ts
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event #{index}: not an object")
            continue
        ph = event.get("ph")
        if ph is None:
            problems.append(f"event #{index}: missing 'ph'")
            continue
        for key in ("pid", "tid"):
            if key not in event:
                problems.append(f"event #{index} ({ph}): missing {key!r}")
        if ph == "M":
            if "name" not in event or "args" not in event:
                problems.append(f"event #{index}: malformed metadata event")
            continue
        if "ts" not in event:
            problems.append(f"event #{index} ({ph}): missing 'ts'")
            continue
        track = (event.get("pid"), event.get("tid"))
        ts = event["ts"]
        if type(ts) not in number:
            problems.append(f"event #{index} ({ph}): non-numeric 'ts' {ts!r}")
            continue
        previous = last_ts.get(track)
        if previous is not None:
            if ts < previous or (strict_ts and ts == previous):
                problems.append(
                    f"event #{index} ({event.get('name')!r}): ts {ts} not "
                    f"{'strictly ' if strict_ts else ''}increasing on track "
                    f"pid={track[0]} tid={track[1]} (previous {previous})"
                )
        last_ts[track] = ts
        if ph == "X":
            dur, name = event.get("dur"), event.get("name")
            if type(dur) not in number:
                problems.append(f"event #{index} ({name!r}): dur {dur!r} not a number")
            elif dur < 0:
                problems.append(f"event #{index} ({name!r}): negative dur")
        elif ph == "B":
            open_begins[track] = open_begins.get(track, 0) + 1
        elif ph == "E":
            depth = open_begins.get(track, 0)
            if depth <= 0:
                problems.append(
                    f"event #{index}: 'E' without matching 'B' on track "
                    f"pid={track[0]} tid={track[1]}"
                )
            else:
                open_begins[track] = depth - 1
        elif ph == "f":
            fid = event.get("id")
            if fid not in flow_starts:
                problems.append(
                    f"event #{index}: flow finish without start "
                    f"(id={fid!r})"
                )
            elif ts < flow_starts[fid]:
                problems.append(
                    f"event #{index}: flow finish at {ts} precedes its "
                    f"start at {flow_starts[fid]} (id={fid!r})"
                )
    for track, depth in sorted(open_begins.items()):
        if depth:
            problems.append(
                f"track pid={track[0]} tid={track[1]}: {depth} unmatched "
                "'B' event(s)"
            )
    return problems


def render_msc(
    trace: TraceRecorder,
    nodes: Optional[Sequence[int]] = None,
    start: Optional[int] = None,
    end: Optional[int] = None,
    max_rows: int = 80,
) -> List[str]:
    """A text message sequence chart of the bus traffic.

    One lifeline column per node; one row per physical transmission
    (sender ``o``, receivers ``>``, silent/dead nodes ``.``), node crash /
    recovery (``X`` / ``^``) and view install (``V``). ``nodes`` restricts
    the columns, ``start``/``end`` the time window; at most ``max_rows``
    rows are rendered (the tail is summarized).
    """
    lo = start if start is not None else 0
    hi = end if end is not None else trace.last_time
    records = [
        r
        for r in trace.window(lo, hi)
        if r.category in ("bus.tx", "bus.deliver", "node.crash",
                          "node.recover", "msh.view")
    ] if len(trace) else []
    if nodes is None:
        seen = {delivery[1] for delivery in deliveries(records)}
        for record in records:
            if record.category == "bus.tx":
                seen.update(record.data.get("senders", ()))
            elif record.node >= 0:
                seen.add(record.node)
        columns = sorted(seen)
    else:
        columns = sorted(nodes)
    if not columns:
        return ["(no traffic in window)"]
    index = {node: i for i, node in enumerate(columns)}
    width = 6
    header = f"{'time':>14}  " + "".join(f"{f'n{n}':^{width}}" for n in columns)
    lines = [header]

    # Deliveries are folded into their transmission's row.
    delivered: Dict[Tuple[int, str], List[int]] = {}
    for time, node, mid, _remote, _inconsistent in deliveries(records):
        delivered.setdefault((time, str(mid)), []).append(node)

    def row(time: int, cells: Dict[int, str], label: str) -> str:
        body = "".join(
            f"{cells.get(n, '.'):^{width}}" for n in columns
        )
        return f"{time:>14}  {body}  {label}"

    rows = 0
    for record in records:
        if rows >= max_rows:
            lines.append(f"... ({len(records)} records in window, truncated)")
            break
        category = record.category
        if category == "bus.tx":
            senders = set(record.data.get("senders", ()))
            received = delivered.get(
                (record.time, str(record.data.get("mid"))), []
            )
            cells = {n: ">" for n in received if n in index}
            for sender in senders:
                if sender in index:
                    cells[sender] = "o"
            kind = record.data.get("kind", "none")
            label = f"{record.data.get('mid')}"
            if record.data.get("remote"):
                label += " (rtr)"
            if kind != "none":
                label += f" [{kind}]"
            lines.append(row(record.time, cells, label))
            rows += 1
        elif category == "node.crash":
            if record.node in index:
                lines.append(row(record.time, {record.node: "X"}, "crash"))
                rows += 1
        elif category == "node.recover":
            if record.node in index:
                lines.append(row(record.time, {record.node: "^"}, "recover"))
                rows += 1
        elif category == "msh.view":
            if record.node in index:
                members = sorted(record.data.get("members", ()))
                lines.append(
                    row(record.time, {record.node: "V"}, f"view {members}")
                )
                rows += 1
    return lines
