"""Property: the row encoder writes the per-row encoding's bytes, exactly.

``RowEncoder`` reads a row's fields straight off the recorder's columns and
caches what repeats (the text around the values per category and payload
keys, the text of each string, message id and node set). The oracle is the
per-row path it replaced (``tests/row_encoding_reference.py``):
``json.dumps(record_to_dict(record), sort_keys=...)``. Both key orders,
every value type a payload may hold — the ones the encoder knows and the
ones it hands back to ``_jsonable`` — many rows per encoder so the caches
are hit, then every row of the golden scenarios through ``encode_rows``,
``export_jsonl`` and ``JsonlSink``.
"""

import io
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st
from row_encoding_reference import reference_row, reference_rows
from test_golden_equivalence import SCENARIOS

from repro.can.identifiers import MessageId, MessageType
from repro.sim.trace import JsonlSink, RowEncoder, TraceRecorder
from repro.util.sets import NodeSet

node_sets = st.sampled_from([64, 256]).flatmap(
    lambda capacity: st.sets(st.integers(0, capacity - 1), max_size=6).map(
        lambda ids: NodeSet(ids, capacity)
    )
)
message_ids = st.builds(
    MessageId,
    st.sampled_from(MessageType),
    st.integers(0, 255),
    st.integers(0, 65535),
)
texts = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\x00\n\t\x1f", "é€😀", "%s", "%%d", ""]),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    texts,
    node_sets,
    st.just(NodeSet.empty(64)),
    st.just(NodeSet.empty(256)),
    message_ids,
    st.sampled_from(MessageType),
    st.binary(max_size=3),
    # Flat tuples, ints among them: the shape of bus.tx's senders.
    st.lists(st.one_of(st.integers(), st.booleans()), max_size=3).map(tuple),
    st.sets(st.integers(-3, 3), max_size=3),
    st.frozensets(texts, max_size=3),
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3),
        st.dictionaries(texts, inner, max_size=3),
        st.dictionaries(st.integers(-20, 20), inner, max_size=3),
    ),
    max_leaves=6,
)
#: Few categories and keys, so rows share shapes and the caches are hit.
categories = st.one_of(st.sampled_from(["bus.tx", "msh.view", 'a%"é']), texts)
payload_keys = st.one_of(st.sampled_from(["mid", "receivers", "b", "a", "%s"]), texts)
payloads = st.one_of(
    st.dictionaries(payload_keys, values, max_size=5),
    st.dictionaries(st.integers(0, 5), values, min_size=1, max_size=2),
)
rows = st.tuples(
    st.integers(0, 2**62), categories, st.integers(-1, 2**31 - 1), payloads
)


@settings(max_examples=300, deadline=None)
@given(st.lists(rows, max_size=12), st.booleans())
@example([(0, "a", 0, {"x": 0.0}), (0, "a", 0, {"x": -0.0})], True)
@example([(0, "a", 0, {"x": 1}), (0, "a", 0, {"x": True})], False)
def test_encoder_writes_the_reference_bytes(batch, sort_keys):
    encoder = RowEncoder(sort_keys)
    for row in batch:
        assert encoder.encode(*row) == reference_row(*row, sort_keys)


def test_caches_hold_values_not_identities():
    """A node set freed after one pass and a different one at the same
    address in the next must not share their text."""
    for node_id in range(64):
        row = (0, "a", 0, {"s": NodeSet({node_id}, 64)})
        assert RowEncoder(True).encode(*row) == reference_row(*row, True)


@settings(max_examples=100, deadline=None)
@given(st.lists(rows, max_size=12))
def test_recorder_exports_and_hashes_the_reference_bytes(batch):
    trace = TraceRecorder()
    buffer = io.StringIO()
    sink = trace.add_sink(JsonlSink(buffer))
    for row in batch:
        trace.record_row(*row)
    for sort_keys in (True, False):
        encoded = list(itertools.chain(*trace.encode_rows(sort_keys)))
        assert encoded == reference_rows(trace, sort_keys)
    exported = io.StringIO()
    assert trace.export_jsonl(exported) == len(batch) == sink.records_written
    lines = "".join(line + "\n" for line in reference_rows(trace, False))
    assert exported.getvalue() == buffer.getvalue() == lines


@settings(max_examples=100, deadline=None)
@given(rows, st.sampled_from([True, 1.5, -0.0]), st.booleans())
def test_odd_row_fields_take_the_reference_path(row, odd, sort_keys):
    """A sink may see a hand-made record whose time or node is no int."""
    time, category, node, data = row
    for fields in ((odd, category, node, data), (time, category, odd, data)):
        assert RowEncoder(sort_keys).encode(*fields) == reference_row(
            *fields, sort_keys
        )


def test_mixed_payload_keys_fail_as_the_reference_does():
    row = (1, "a", 0, {"b": 1, 2: 3})
    with pytest.raises(TypeError):
        reference_row(*row, True)
    with pytest.raises(TypeError):
        RowEncoder(True).encode(*row)
    assert RowEncoder().encode(*row) == reference_row(*row, False)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_golden_scenarios_encode_every_row_as_the_reference(scenario):
    trace = scenario().sim.trace
    for sort_keys in (True, False):
        encoded = list(itertools.chain(*trace.encode_rows(sort_keys)))
        assert encoded == reference_rows(trace, sort_keys)
    exported = io.StringIO()
    trace.export_jsonl(exported)
    assert exported.getvalue().splitlines() == reference_rows(trace, False)
