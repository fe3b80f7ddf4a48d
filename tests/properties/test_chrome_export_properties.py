"""Property: the Chrome exporter writes the dict-per-event payload's bytes.

``export_chrome_trace`` writes each span's ``"X"`` event straight from the
span, into a template cached per span shape, and caches the text of the
values that repeat (strings, message ids, node sets by their bits, tuples
by identity). The oracle is the exporter it replaced
(``tests/chrome_reference.py``): one dict per event, the payload encoded
whole by ``json.dumps(sort_keys=True, separators=(",", ":"), default=str)``.
Random tracers cover open and closed spans, point events, flows on and off,
categories without a Chrome thread (``tid`` 9), bus spans (``pid`` 0),
attr keys that clash with the exporter's own args, and every kind of attr
value; shared value objects let the caches hit.
"""

import pytest
from hypothesis import given, settings, strategies as st
from chrome_reference import reference_chrome_trace

from repro.can.identifiers import MessageId, MessageType
from repro.core.stack import CanelyNetwork
from repro.obs.export import export_chrome_trace
from repro.obs.spans import SpanTracer
from repro.sim.clock import ms
from repro.util.sets import NodeSet

texts = st.one_of(
    st.text(max_size=5),
    st.sampled_from(['"', "\\", "%s", "%%d", "100%", "é€😀", "\x00\n\t", ""]),
)
node_sets = st.sampled_from([64, 256]).flatmap(
    lambda capacity: st.sets(st.integers(0, capacity - 1), max_size=5).map(
        lambda ids: NodeSet(ids, capacity)
    )
)
message_ids = st.builds(
    MessageId,
    st.sampled_from(MessageType),
    st.integers(0, 255),
    st.integers(0, 65535),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 30),
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(-0.0),
    texts,
    node_sets,
    message_ids,
    st.sampled_from(MessageType),
    # Flat int tuples and lists: a surveillance span's watchers, a view's
    # failed set. Equal but differently typed ones must not share a text.
    st.lists(st.integers(-3, 30), max_size=4).map(tuple),
    st.lists(st.integers(-3, 30), max_size=4),
    st.sampled_from([(1,), (True,), (1.0,), [1], [True]]),
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3),
        st.dictionaries(texts, inner, max_size=3),
        st.dictionaries(st.integers(-5, 5), inner, max_size=2),
    ),
    max_leaves=5,
)
#: Few names and keys, so spans share shapes and the templates are reused.
names = st.one_of(st.sampled_from(["can.tx", "fd.surveillance", 'a%"é']), texts)
categories = st.sampled_from(["can", "bus", "fd", "node", "timers", "zz", 'q%"é'])
attr_keys = st.one_of(
    st.sampled_from(["mid", "watchers", "b", "a", "%s", 'k"é']),
    st.sampled_from(["span_id", "node", "parent", "events", "open"]),
    texts,
)


@st.composite
def tracers(draw):
    """A tracer of random spans whose attr values come from a shared pool
    (the same objects on several spans, as a surveillance group's
    watchers tuple is)."""
    pool = draw(st.lists(values, min_size=1, max_size=6))
    tracer = SpanTracer(clock=lambda: 0)
    for span_id in range(draw(st.integers(0, 12))):
        start = draw(st.integers(0, 2**40))
        parent = draw(st.none() if span_id == 0 else st.one_of(
            st.none(), st.integers(0, span_id - 1)
        ))
        node = draw(st.one_of(st.integers(-1, 4), st.sampled_from([True, 1.5])))
        tracer.begin(
            draw(names), draw(categories), node=node, parent=parent, at=start
        )
        keys = draw(st.lists(attr_keys, max_size=4, unique=True))
        indices = draw(st.lists(st.integers(0, len(pool) - 1), min_size=len(keys),
                                max_size=len(keys)))
        tracer.get(span_id).attrs.update(
            (key, pool[index]) for key, index in zip(keys, indices)
        )
        for _ in range(draw(st.integers(0, 2))):
            tracer.event(span_id, draw(texts), at=draw(st.integers(0, 2**40)))
        if draw(st.booleans()):
            tracer.end(span_id, at=start + draw(st.integers(0, 10**9)))
    return tracer


@settings(max_examples=300, deadline=None)
@given(tracers(), st.booleans())
def test_exporter_writes_the_reference_bytes(tracer, flows):
    assert export_chrome_trace(tracer, flows=flows) == reference_chrome_trace(
        tracer, flows=flows
    )


def _tracer(*spans):
    """Closed spans ``(name, category, node, attrs)`` at t = 0..."""
    tracer = SpanTracer(clock=lambda: 0)
    for start, (name, category, node, attrs) in enumerate(spans):
        span_id = tracer.begin(name, category, node=node, at=start)
        tracer.get(span_id).attrs.update(attrs)
        tracer.end(span_id, at=start + 1)
    return tracer


@pytest.mark.parametrize(
    "spans",
    [
        # Equal values of other types (or signs) must not share a text.
        [("a", "fd", 0, {"w": (1,)}), ("a", "fd", 0, {"w": (True,)})],
        [("a", "zz", -1, {"x": 0.0}), ("a", "zz", -1, {"x": -0.0})],
        [("a", "fd", 0, {"w": [1]}), ("a", "fd", 0, {"w": [1.0]})],
        # Attrs that clash with the exporter's own args win over them.
        [("a", "can", 1, {"node": 7, "open": 3, "span_id": "x"})],
    ],
    ids=["int-bool", "signed-zero", "int-float", "own-args"],
)
def test_edge_cases_write_the_reference_bytes(spans):
    tracer = _tracer(*spans)
    for flows in (False, True):
        assert export_chrome_trace(tracer, flows=flows) == reference_chrome_trace(
            tracer, flows=flows
        )


def test_mixed_attr_keys_fail_as_the_reference_does():
    tracer = _tracer(("a", "fd", 0, {"b": 1, 2: 3}))
    with pytest.raises(TypeError):
        reference_chrome_trace(tracer)
    with pytest.raises(TypeError):
        export_chrome_trace(tracer)


@pytest.mark.parametrize("flows", [False, True], ids=["plain", "flows"])
def test_a_crash_run_exports_the_reference_bytes(flows):
    net = CanelyNetwork(node_count=5, spans=True)
    net.scenario(seed=3).bootstrap().crash(1, at=ms(2)).run_until_settled()
    spans = net.sim.spans
    assert spans.open_spans()
    assert export_chrome_trace(spans, flows=flows) == reference_chrome_trace(
        spans, flows=flows
    )
