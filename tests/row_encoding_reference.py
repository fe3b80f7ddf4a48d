"""The trace-row encoding as it was before ``RowEncoder``: the test oracle.

A row's JSON text was ``json.dumps(record_to_dict(record),
sort_keys=...)``: materialize a ``TraceRecord``, project every payload value
through ``_jsonable``, encode the whole dict. Sorted keys are what
``Result.fingerprint`` hashes, record key order is what ``export_jsonl`` and
``JsonlSink`` write. ``repro.sim.trace.RowEncoder`` must produce exactly these
bytes for every row (``tests/properties/test_row_encoding_properties.py``).
"""

import json

from repro.sim.trace import TraceRecord, record_to_dict


def reference_row(time, category, node, data, sort_keys):
    """One row's JSON text, the per-row way."""
    record = TraceRecord(time, category, node, data)
    return json.dumps(record_to_dict(record), sort_keys=sort_keys)


def reference_rows(trace, sort_keys):
    """Every retained row of ``trace``, the per-row way."""
    return [
        reference_row(r.time, r.category, r.node, r.data, sort_keys)
        for r in trace
    ]
