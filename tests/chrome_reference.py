"""The Chrome trace export as it was before its template encoder: the oracle.

``reference_trace_events`` builds one dict per event (metadata, one ``"X"``
per span, ``s``/``f`` flow pairs) and ``reference_chrome_trace`` encodes
the payload whole with ``json.dumps(sort_keys=True, separators=(",", ":"),
default=str)``. ``repro.obs.export.export_chrome_trace`` must return exactly
these bytes for every span trace
(``tests/properties/test_chrome_export_properties.py``).
"""

import json
from typing import Any, Dict, List, Tuple

from repro.obs.export import CHROME_CATEGORIES, SPAN_FORMAT
from repro.obs.spans import Span, SpanTracer
from repro.util.sets import NodeSet


def _ts(ticks: int) -> float:
    """Kernel ticks (ns) to trace-event microseconds."""
    return ticks / 1000.0


def plain_attrs(span: Span) -> Dict[str, Any]:
    """``span.attrs`` in key order with node sets as ascending id lists
    (and tuples as lists) — the form every exporter writes."""
    return {
        key: list(value) if isinstance(value, (NodeSet, tuple)) else value
        for key, value in sorted(span.attrs.items())
    }


def reference_trace_events(
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


def reference_chrome_trace(tracer: SpanTracer, flows: bool = False) -> str:
    """The Chrome trace-event JSON text, one dict per event."""
    payload = {
        "displayTimeUnit": "ms",
        "otherData": {"format": SPAN_FORMAT},
        "traceEvents": reference_trace_events(tracer, flows=flows),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
