"""Span and trace exporters: Chrome trace-event JSON and text MSC.

``export_chrome_trace`` projects the causal span trace onto the Chrome
trace-event format (the JSON consumed by Perfetto / ``chrome://tracing``):
one *process* per node (pid 0 is the bus / global track, pid ``n + 1`` is
node ``n``), one *thread* per protocol layer, and one complete (``"X"``)
event per span. Parent links can additionally be emitted as flow events
(``"s"``/``"f"``) so the causal tree renders as arrows across tracks.

Output is fully deterministic for a seeded run: spans are visited in id
order, events are sorted on a total key, and the JSON is written with
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
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.spans import SpanTracer, plain_value
from repro.sim.trace import TraceRecorder, deliveries
from repro.util.sets import NodeSet

__all__ = [
    "CHROME_CATEGORIES",
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


#: Layer -> Chrome "thread" id; every other category shares ``_OTHER_TID``.
_THREAD_IDS = {category: tid for tid, category in enumerate(CHROME_CATEGORIES)}
_OTHER_TID = len(CHROME_CATEGORIES)
#: The args every ``"X"`` event may carry besides the span's attrs.
_OWN_ARGS = frozenset(("span_id", "node", "parent", "events", "open"))
#: A span's values as the exporter gathers them: its own args, ``dur``,
#: ``pid`` and ``ts``, then its attrs in ``span.attrs`` order.
_SPAN_ID, _NODE, _PARENT, _EVENTS, _DUR, _PID, _TS, _ATTRS = range(8)

#: ``_dumps(value)`` is ``json.dumps(value, sort_keys=True, separators=(",",
#: ":"), default=str)``: the payload's text of ``value``, one encoder reused.
_dumps = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=str
).encode


def _template(
    name: Any, category: Any, keys: Tuple[Any, ...], has_parent: bool,
    has_events: bool, is_open: bool,
) -> Any:
    """One span shape's ``"X"`` event: its ``%`` template, the getter that
    picks the template's values out of a span's values, and its ``tid``;
    ``None`` when an attr key is no ``str`` or is one of :data:`_OWN_ARGS`."""
    if any(type(key) is not str or key in _OWN_ARGS for key in keys):
        return None
    slots: Dict[str, Optional[int]] = {
        key: _ATTRS + index for index, key in enumerate(keys)
    }
    slots.update(span_id=_SPAN_ID, node=_NODE)
    if has_parent:
        slots["parent"] = _PARENT
    if has_events:
        slots["events"] = _EVENTS
    if is_open:
        slots["open"] = None  # a constant: "open": true
    fields = []
    order = []
    for key in sorted(slots):  # the args in ``sort_keys`` order
        slot = slots[key]
        if slot is None:
            fields.append('"open":true')
        else:
            fields.append(_dumps(key).replace("%", "%%") + ":%s")
            order.append(slot)
    tid = _THREAD_IDS.get(category, _OTHER_TID)
    template = "".join((
        '{"args":{', ",".join(fields),
        '},"cat":', _dumps(category).replace("%", "%%"),
        ',"dur":%r,"name":', _dumps(name).replace("%", "%%"),
        ',"ph":"X","pid":%d,"tid":', str(tid), ',"ts":%r}',
    ))
    return template, itemgetter(*order, _DUR, _PID, _TS), tid


def export_chrome_trace(
    tracer: SpanTracer, path: Optional[str] = None, flows: bool = False
) -> str:
    """Serialize the span trace to Chrome trace-event JSON.

    Spans still open (e.g. a deadline armed when the run stopped) are closed
    at the trace's maximum timestamp and tagged ``"open": true``. With
    ``flows=True``, every cross-track parent link becomes an ``s``/``f``
    flow pair so the viewer draws causal arrows.

    Returns the JSON text; additionally writes it to ``path`` when given.
    Serialization is canonical (sorted keys, fixed separators), so equal
    span traces produce byte-identical files. Each span's event is written
    once, straight from its fields, into a template cached per span shape
    (name, category, attr keys, and whether it has a parent, point events
    or is open). Cached too: the text of each ``str``, ``bool``, ``None``
    and ``MessageId``, of each node set (by its bits) and of each tuple (by
    identity: the spans hold it for the whole export). A span whose attr
    keys clash with the exporter's own args, or whose node or parent is no
    int, is encoded as a dict.
    """
    from repro.can.identifiers import MessageId  # repro.can imports repro.obs

    cached_kinds = frozenset((bool, type(None), MessageId, NodeSet))
    close_at = tracer.max_time()
    templates: Dict[Tuple[Any, ...], Any] = {}
    strings: Dict[str, str] = {}
    tuples: Dict[int, str] = {}
    texts: Dict[Tuple[type, Any], str] = {}
    tracks: Dict[Tuple[Any, int], Any] = {}  # (pid, tid) -> its first category
    #: (pid, tid) -> its events as (ts, span id, ph, text)
    by_track: Dict[Tuple[Any, int], List[Tuple[Any, ...]]] = {}
    for span in tracer:
        attrs = span.attrs
        node = span.node
        parent = span.parent
        end = span.end
        start = span.start
        span_events = span.events
        keys = tuple(attrs)
        shape = (
            span.name, span.category, keys, parent is not None,
            bool(span_events), end is None,
        )
        # The caches are read by subscript: they almost always hit, and a
        # method call per lookup costs more (and, profiled, far more).
        try:
            plan = templates[shape]
        except KeyError:
            plan = templates[shape] = _template(*shape)
        pid = node + 1
        ts = start / 1000.0
        dur = ((close_at if end is None else end) - start) / 1000.0
        if (
            plan is None or type(node) is not int
            or (parent is not None and type(parent) is not int)
        ):
            tid = _THREAD_IDS.get(span.category, _OTHER_TID)
            args: Dict[Any, Any] = {"span_id": span.span_id, "node": node}
            if parent is not None:
                args["parent"] = parent
            args.update((key, plain_value(value)) for key, value in attrs.items())
            if span_events:
                args["events"] = [[time, label] for time, label in span_events]
            if end is None:
                args["open"] = True
            text = _dumps({
                "name": span.name, "cat": span.category, "ph": "X", "ts": ts,
                "dur": dur, "pid": pid, "tid": tid, "args": args,
            })
        else:
            template, order, tid = plan
            values = [
                span.span_id, node, parent,
                _dumps(span_events) if span_events else None, dur, pid, ts,
            ]
            for key in keys:
                value = attrs[key]
                kind = type(value)
                if kind is int:
                    values.append(value)
                elif kind is str:
                    try:
                        text = strings[value]
                    except KeyError:
                        text = strings[value] = _dumps(value)
                    values.append(text)
                elif kind is tuple:
                    try:
                        text = tuples[id(value)]
                    except KeyError:
                        text = tuples[id(value)] = _dumps(list(value))
                    values.append(text)
                elif kind in cached_kinds:
                    token = (kind, value._bits if kind is NodeSet else value)
                    try:
                        text = texts[token]
                    except KeyError:
                        text = texts[token] = _dumps(plain_value(value))
                    values.append(text)
                else:
                    values.append(_dumps(plain_value(value)))
            text = template % order(values)
        track = (pid, tid)
        try:
            events = by_track[track]
        except KeyError:
            events = by_track[track] = []
        if track not in tracks:
            tracks[track] = span.category
        events.append((ts, span.span_id, "X", text))
        if flows and parent is not None:
            source = tracer.get(parent)
            source_track = (
                source.node + 1, _THREAD_IDS.get(source.category, _OTHER_TID)
            )
            if source_track != track:
                source_end = close_at if source.end is None else source.end
                flow = {
                    "name": "causal",
                    "cat": "causal",
                    "id": span.span_id,
                    "pid": source_track[0],
                    "tid": source_track[1],
                    "ts": min(source_end, start) / 1000.0,
                }
                by_track.setdefault(source_track, []).append(
                    (flow["ts"], span.span_id, "s", _dumps(dict(flow, ph="s")))
                )
                events.append((
                    ts, span.span_id, "f",
                    _dumps(dict(flow, ph="f", bp="e", pid=pid, tid=tid, ts=ts)),
                ))
    parts = [
        _dumps({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "bus" if pid == 0 else f"node {pid - 1}"},
        })
        for pid in sorted({pid for pid, _tid in tracks})
    ]
    parts.extend(
        _dumps({
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": category},
        })
        for (pid, tid), category in sorted(tracks.items())
    )
    # Deterministic total order: track, then time, then span id, then phase
    # (unique, so the text is never compared). A track's events come mostly
    # in time order already.
    for track in sorted(by_track):
        events = by_track[track]
        events.sort()
        parts.extend([event[3] for event in events])
    # One join, so the text is allocated once (a second copy would leave a
    # hole in the heap that the objects of a later parse cannot use): the
    # payload's head and tail ride on the first and last event.
    head = '{"displayTimeUnit":"ms","otherData":{"format":%s},"traceEvents":[' % (
        _dumps(SPAN_FORMAT)
    )
    if parts:
        parts[0] = head + parts[0]
        parts[-1] += "]}"
    else:
        parts = [head + "]}"]
    text = ",".join(parts)
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
    Returns the list of problems — empty means the payload validates; text
    that is not JSON is one ``"not JSON: ..."`` problem.
    """
    if isinstance(events, (str, bytes)):
        try:
            events = json.loads(events)
        except ValueError as error:  # a JSONDecodeError or UnicodeDecodeError
            return [f"not JSON: {error}"]
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
