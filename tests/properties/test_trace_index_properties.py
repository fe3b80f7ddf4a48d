"""Property-based tests: indexed trace queries match a brute-force scan.

The recorder's per-category/per-node indexes are an optimization; the
observable behavior of ``select``/``count`` must be exactly that of a
linear scan over the records, for every filter combination — and that of
a plain list of every row recorded.
"""

from hypothesis import given, strategies as st

from repro.sim.trace import TraceRecorder

CATEGORIES = ("bus.tx", "bus.deliver", "msh.view", "fda.nty", "node.crash")

record_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1_000),  # time
        st.sampled_from(CATEGORIES),
        st.integers(min_value=-1, max_value=4),  # node
    ),
    max_size=120,
)


def fill(trace, specs):
    for time, category, node in specs:
        trace.record(time, category, node=node)


def brute_select(trace, category=None, node=None, start=None, end=None):
    out = []
    for record in trace:  # iteration is plain insertion order
        if category is not None:
            if category.endswith("."):
                if not record.category.startswith(category):
                    continue
            elif record.category != category:
                continue
        if node is not None and record.node != node:
            continue
        if start is not None and record.time < start:
            continue
        if end is not None and record.time > end:
            continue
        out.append(record)
    return out


@given(record_specs, st.sampled_from(CATEGORIES + ("bus.", "missing")))
def test_select_by_category_matches_scan(specs, category):
    trace = TraceRecorder()
    fill(trace, specs)
    assert trace.select(category=category) == brute_select(
        trace, category=category
    )


@given(record_specs, st.integers(min_value=-1, max_value=5))
def test_select_by_node_matches_scan(specs, node):
    trace = TraceRecorder()
    fill(trace, specs)
    assert trace.select(node=node) == brute_select(trace, node=node)


@given(
    record_specs,
    st.sampled_from(CATEGORIES + ("bus.",)),
    st.integers(min_value=-1, max_value=5),
    st.integers(min_value=0, max_value=1_000),
    st.integers(min_value=0, max_value=1_000),
)
def test_combined_filters_match_scan(specs, category, node, start, end):
    trace = TraceRecorder()
    fill(trace, specs)
    assert trace.select(
        category=category, node=node, start=start, end=end
    ) == brute_select(trace, category=category, node=node, start=start, end=end)


@given(record_specs, st.sampled_from(CATEGORIES + ("bus.", "missing")))
def test_count_matches_select_length(specs, category):
    trace = TraceRecorder()
    fill(trace, specs)
    assert trace.count(category) == len(brute_select(trace, category=category))


def model_select(model, category=None, node=None):
    """The naive list model: ``(time, category, node, payload)`` tuples."""
    return [
        row
        for row in model
        if (
            category is None
            or (
                row[1].startswith(category)
                if category.endswith(".")
                else row[1] == category
            )
        )
        and (node is None or row[2] == node)
    ]


def assert_matches_model(trace, model):
    as_rows = lambda records: [(r.time, r.category, r.node, r.data) for r in records]
    assert len(trace) == len(model)
    assert as_rows(trace) == model
    for category in CATEGORIES + ("bus.", "missing"):
        want = model_select(model, category=category)
        assert as_rows(trace.select(category=category)) == want
        assert trace.count(category) == len(want)
        if not category.endswith("."):
            times, nodes, payloads = trace.category_columns(category)
            assert list(times) == [row[0] for row in want]
            assert list(nodes) == [row[2] for row in want]
            assert payloads == [row[3] for row in want]
    for node in range(-1, 5):
        assert as_rows(trace.select(node=node)) == model_select(model, node=node)
        assert as_rows(trace.select(category="bus.", node=node)) == model_select(
            model, category="bus.", node=node
        )


@given(record_specs, record_specs)
def test_queries_match_the_list_across_record_rounds(first, second):
    """Record, query, record more, query again — the second round extends
    the indexes the first one built, one batch of rows at a time."""
    trace = TraceRecorder()
    model = []
    for specs in (first, second):
        for time, category, node in specs:
            payload = {"n": len(model)}
            trace.record_row(time, category, node, payload)
            model.append((time, category, node, payload))
        assert_matches_model(trace, model)


@given(record_specs)
def test_categories_totals_match_record_count(specs):
    trace = TraceRecorder()
    fill(trace, specs)
    breakdown = trace.categories()
    assert sum(breakdown.values()) == len(trace)
    assert all(count > 0 for count in breakdown.values())
