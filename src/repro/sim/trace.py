"""Simulation trace recording.

Every layer appends typed records (category + payload dict) to a shared
:class:`TraceRecorder`. Tests and the MCAN/LCAN property monitors query the
trace after a run; benchmarks use it to account bandwidth; the online
invariant monitors of :mod:`repro.obs.monitors` subscribe as streaming
sinks and check properties *while* the run is in progress.

A sink subscribes to every row or to a set of categories. The recorder
keeps one immutable sink tuple per interned category (its route), built
when the category is interned and rebuilt on every ``add_sink`` /
``remove_sink``, so a row reaches only the sinks that read its category,
in attachment order, and a row nobody reads materializes nothing. A row
reads its route once: a sink added or removed while a row is being
delivered takes effect with the next row.

The recorder stores columns, not objects: times, interned category ids and
node ids live in packed ``array`` columns beside a list of payload dicts,
and a :class:`TraceRecord` only materializes when something looks at it — a
query, an iteration, a registered sink. Per-category and per-node indexes
are built lazily on the first query and extended incrementally, so
:meth:`TraceRecorder.select` costs O(matches) instead of a scan over the
whole trace, and a run that never queries its trace pays nothing for them.

The recorder keeps every row: the monitors, the trace fingerprint
(:attr:`repro.workloads.scenario.Result.fingerprint`) and the QoS
analysis all judge a run from the whole trace. Finished traces stream to
disk with :meth:`TraceRecorder.export_jsonl` or live through a
:class:`JsonlSink`.
"""

from __future__ import annotations

import heapq
import json
from array import array
from itertools import chain, islice
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    FrozenSet,
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.util.sets import NodeSet

TraceSink = Callable[["TraceRecord"], None]

#: A row's text around its values, per key order (``%%d``: node, time).
_ROW = '{"time": %%d, "category": %s, "node": %%d, "data": {%s}}'
_SORTED_ROW = '{"category": %s, "data": {%s}, "node": %%d, "time": %%d}'


class TraceRecord:
    """One trace entry. Treat as immutable once recorded.

    A slotted plain class rather than a frozen dataclass: queries and
    sinks materialize thousands of these per simulated second, and the
    frozen-dataclass ``__init__`` (one ``object.__setattr__`` per field) is
    measurable at that rate.

    Attributes:
        time: simulation time of the event, in kernel ticks.
        category: dotted event kind, e.g. ``"bus.tx"`` or ``"msh.view"``.
        node: node identifier the record concerns (-1 for bus-global events).
        data: free-form payload.
    """

    __slots__ = ("time", "category", "node", "data")

    def __init__(
        self,
        time: int,
        category: str,
        node: int = -1,
        data: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.time = time
        self.category = category
        self.node = node
        self.data = {} if data is None else data

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.time == other.time
            and self.category == other.category
            and self.node == other.node
            and self.data == other.data
        )


def deliveries(
    records: Iterable[TraceRecord],
) -> Iterator[Tuple[int, int, Any, bool, bool]]:
    """Per-receiver view of the ``bus.deliver`` rows among ``records``.

    The bus writes one ``bus.deliver`` row per delivered frame (``node=-1``;
    payload ``mid``, ``remote``, ``receivers`` = the set of controllers that
    took the frame, and ``inconsistent=True`` on the accepting subset of an
    inconsistent omission). This is the one place that fans a row out:
    it yields ``(time, receiver, mid, remote, inconsistent)`` per receiver,
    receivers in ascending id order, and skips records of other categories.
    """
    for record in records:
        if record.category != "bus.deliver":
            continue
        data = record.data
        mid = data["mid"]
        remote = data.get("remote", False)
        inconsistent = data.get("inconsistent", False)
        for receiver in data["receivers"]:
            yield record.time, receiver, mid, remote, inconsistent


def _jsonable(value: Any) -> Any:
    """Best-effort JSON projection of a trace payload value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(item) for item in value]
    try:
        # NodeSet and friends: iterable containers serialize as lists.
        return [_jsonable(item) for item in value]
    except TypeError:
        return repr(value)


def record_to_dict(record: TraceRecord) -> Dict[str, Any]:
    """A JSON-serializable projection of ``record``."""
    return {
        "time": record.time,
        "category": record.category,
        "node": record.node,
        "data": {key: _jsonable(value) for key, value in record.data.items()},
    }


class RowEncoder:
    """One trace row's JSON text, straight from the row's fields.

    ``encode(time, category, node, data)`` is byte for byte
    ``json.dumps(record_to_dict(record), sort_keys=sort_keys)``. Cached: the
    text around the values per ``(category, payload keys)``, and that of each
    ``bool``, ``None``, ``str``, ``MessageId`` and ``NodeSet`` (by its bits,
    never by ``id()``). Ints and flat int tuples are formatted inline; other
    values go through ``_jsonable`` and ``json.dumps`` alone, and a row with a
    payload key that is no ``str`` through :func:`record_to_dict` whole.
    """

    def __init__(self, sort_keys: bool = False) -> None:
        from repro.can.identifiers import MessageId
        self._sort = sort_keys
        self._cached = frozenset((bool, type(None), str, MessageId, NodeSet))
        self._heads: Dict[Tuple[str, Tuple[Any, ...]], Any] = {}
        self._texts: Dict[Tuple[type, Any], str] = {}

    def _head(self, category: str, keys: Tuple[Any, ...]) -> Any:
        if not all(isinstance(key, str) for key in keys):
            return None
        keys = tuple(sorted(keys)) if self._sort else keys
        fields = ", ".join(json.dumps(k).replace("%", "%%") + ": %s" for k in keys)
        template = _SORTED_ROW if self._sort else _ROW
        return template % (json.dumps(category).replace("%", "%%"), fields), keys

    def encode(self, time: int, category: str, node: int, data: Dict[str, Any]) -> str:
        """The JSON text of one row."""
        shape = (category, tuple(data))
        head = self._heads.get(shape, False)
        if head is False:
            head = self._heads[shape] = self._head(*shape)
        if head is None or type(time) is not int or type(node) is not int:
            record = TraceRecord(time, category, node, data)
            return json.dumps(record_to_dict(record), sort_keys=self._sort)
        template, keys = head
        texts = self._texts
        cached = self._cached
        parts: List[Any] = []
        for key in keys:
            value = data[key]
            kind = type(value)
            if kind is int:
                parts.append(value)
            elif kind in cached:
                token = (kind, value._bits if kind is NodeSet else value)
                text = texts.get(token)
                if text is None:
                    if len(texts) >= 1024:  # a long-lived sink stays bounded
                        texts.clear()
                    text = texts[token] = json.dumps(_jsonable(value))
                parts.append(text)
            elif kind is tuple and set(map(type, value)) <= {int}:
                parts.append(repr(list(value)))
            else:
                parts.append(json.dumps(_jsonable(value), sort_keys=self._sort))
        if self._sort:
            return template % (*parts, node, time)
        return template % (time, node, *parts)


class JsonlSink:
    """A streaming sink writing each record as one JSON line.

    Register with :meth:`TraceRecorder.add_sink`. Each line is written as
    its record arrives (:class:`RowEncoder`, record key order); a path is
    opened as UTF-8 with ``\\n`` line ends, whatever the platform.
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        self._owns_handle = isinstance(target, str)
        if self._owns_handle:
            target = open(target, "w", encoding="utf-8", newline="\n")
        self._handle: IO[str] = target
        self._encode = RowEncoder().encode
        self.records_written = 0

    def __call__(self, record: TraceRecord) -> None:
        line = self._encode(record.time, record.category, record.node, record.data)
        self._handle.write(line + "\n")
        self.records_written += 1

    def close(self) -> None:
        """Flush and close the underlying file (if this sink opened it)."""
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class _LazyIndex:
    """Column value -> ``array`` of row numbers, built on demand.

    Complete for rows ``< indexed_to``. A query brings it up to date with
    :meth:`refresh`; an index no query asks for costs nothing.
    """

    __slots__ = ("column", "buckets", "indexed_to")

    def __init__(self, column: "array") -> None:
        self.column = column
        self.buckets: Dict[int, "array"] = {}
        self.indexed_to = 0

    def refresh(self) -> Dict[int, "array"]:
        """Index the rows recorded since the last refresh; returns the
        buckets."""
        buckets = self.buckets
        start = self.indexed_to
        fresh = self.column[start:]
        for row, key in enumerate(fresh, start):
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = array("q")
            bucket.append(row)
        self.indexed_to = start + len(fresh)
        return buckets


class TraceRecorder:
    """Sequence of :class:`TraceRecord` held as columns, with indexed queries.

    Recording is four C-level appends plus one dict lookup and one list
    index — no :class:`TraceRecord` allocation; records materialize only
    when a sink reads their category or a query looks at them. Every
    record is kept; its row number is its sequence number.
    """

    def __init__(self) -> None:
        #: Subscriptions in attachment order: (sink, categories or None).
        self._sinks: List[Tuple[TraceSink, Optional[FrozenSet[str]]]] = []
        #: Category id -> the sinks its rows go to (the route table).
        self._routes: List[Tuple[TraceSink, ...]] = []
        self._max_time = 0
        self._times = array("q")
        self._cats = array("i")
        self._nodes = array("i")
        self._payloads: List[Dict[str, Any]] = []
        #: Category interning: name -> small int and back.
        self._cat_of: Dict[str, int] = {}
        self._cat_names: List[str] = []
        # Bound appends: record_row() below runs once per trace record.
        self._t_append = self._times.append
        self._c_append = self._cats.append
        self._n_append = self._nodes.append
        self._p_append = self._payloads.append
        self._by_cat = _LazyIndex(self._cats)
        self._by_node = _LazyIndex(self._nodes)

    # -- container protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        for row in range(len(self._times)):
            yield self._materialize(row)

    def _materialize(self, row: int) -> TraceRecord:
        # Bypasses TraceRecord.__init__: a query over a large trace
        # allocates one of these per match, and the extra constructor
        # frame is measurable there.
        entry = TraceRecord.__new__(TraceRecord)
        entry.time = self._times[row]
        entry.category = self._cat_names[self._cats[row]]
        entry.node = self._nodes[row]
        entry.data = self._payloads[row]
        return entry

    @property
    def last_time(self) -> int:
        """Largest record time seen so far (0 on an empty trace)."""
        return self._max_time

    # -- recording ---------------------------------------------------------------

    def add_sink(
        self, sink: TraceSink, categories: Optional[Collection[str]] = None
    ) -> TraceSink:
        """Stream future records to ``sink`` (returns it for removal).

        ``categories=None`` subscribes to every row; a collection of
        category names to those rows only. Sinks receive a row in
        attachment order, starting with the next row recorded.
        """
        wanted = None if categories is None else frozenset(categories)
        self._sinks.append((sink, wanted))
        self._reroute()
        return sink

    def remove_sink(self, sink: TraceSink) -> None:
        """Stop streaming to ``sink`` from the next row on (missing sinks
        are ignored; a sink added twice is removed once)."""
        for index, (attached, _wanted) in enumerate(self._sinks):
            if attached == sink:
                del self._sinks[index]
                self._reroute()
                return

    def _route(self, category: str) -> Tuple[TraceSink, ...]:
        """The sinks that read ``category``'s rows, in attachment order."""
        route = []
        for sink, wanted in self._sinks:
            if wanted is None or category in wanted:
                route.append(sink)
        return tuple(route)

    def _reroute(self) -> None:
        # Fresh tuples, never mutated in place: a row being delivered keeps
        # iterating the route it read.
        self._routes = [self._route(name) for name in self._cat_names]

    def record(
        self,
        time: int,
        category: str,
        node: int = -1,
        **data: Any,
    ) -> None:
        """Append a record."""
        self.record_row(time, category, node, data)

    def record_row(
        self, time: int, category: str, node: int, data: Dict[str, Any]
    ) -> None:
        """Positional fast lane of :meth:`record` for prebuilt payloads.

        Semantics are identical to ``record(time, category, node,
        **data)`` except the payload dict is stored as given — no kwargs
        repack. Recorded payloads are treated as immutable, exactly as
        :meth:`record`'s kwargs dicts already are.
        """
        cat_id = self._cat_of.get(category)
        if cat_id is None:
            cat_id = self._cat_of[category] = len(self._cat_names)
            self._cat_names.append(category)
            self._routes.append(self._route(category))
        self._t_append(time)
        self._c_append(cat_id)
        self._n_append(node)
        self._p_append(data)
        if time > self._max_time:
            self._max_time = time
        sinks = self._routes[cat_id]
        if sinks:
            # Sinks observe real records: materialize once for all of them.
            entry = TraceRecord.__new__(TraceRecord)
            entry.time = time
            entry.category = category
            entry.node = node
            entry.data = data
            for sink in sinks:
                sink(entry)

    # -- queries -----------------------------------------------------------------

    def _candidate_rows(
        self, category: Optional[str], node: Optional[int]
    ) -> Iterator[int]:
        """Rows to inspect, narrowed by the cheapest index."""
        if category is None and node is None:
            return iter(range(len(self)))
        if category is not None and not category.endswith("."):
            cid = self._cat_of.get(category)
            exact = self._by_cat.refresh().get(cid)
            if exact is None:
                return iter(())
            if node is not None:
                by_node = self._by_node.refresh().get(node, ())
                return iter(min(exact, by_node, key=len))
            return iter(exact)
        if category is not None:
            # Prefix query: merge the per-category runs back into insertion
            # order. Distinct categories are few, so this stays O(matches).
            by_cat = self._by_cat.refresh()
            runs = [
                by_cat[cid]
                for name, cid in self._cat_of.items()
                if name.startswith(category) and cid in by_cat
            ]
            return iter(runs[0]) if len(runs) == 1 else heapq.merge(*runs)
        return iter(self._by_node.refresh().get(node, ()))

    def select(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> List[TraceRecord]:
        """Return records matching every given filter, in insertion order.

        ``category`` matches exactly, or as a prefix when it ends with
        ``"."`` (so ``select(category="bus.")`` returns all bus events).
        ``start``/``end`` bound the record time (inclusive). The category
        and node filters are answered from indexes, so the cost is
        proportional to the candidate matches, not the trace length;
        filtering runs on the columns and a record materializes only on
        a match.
        """
        prefix = category is not None and category.endswith(".")
        want_cid: Optional[int] = None
        if category is not None and not prefix:
            want_cid = self._cat_of.get(category)
            if want_cid is None:
                return []
        times = self._times
        cats = self._cats
        nodes = self._nodes
        names = self._cat_names
        result = []
        for row in self._candidate_rows(category, node):
            if want_cid is not None and cats[row] != want_cid:
                continue
            if prefix and not names[cats[row]].startswith(category):
                continue
            if node is not None and nodes[row] != node:
                continue
            time = times[row]
            if start is not None and time < start:
                continue
            if end is not None and time > end:
                continue
            record = self._materialize(row)
            if predicate is not None and not predicate(record):
                continue
            result.append(record)
        return result

    def count(self, category: str) -> int:
        """Number of records with the given category.

        A trailing ``"."`` counts the whole prefix, summing over the
        distinct matching categories. A C-speed column scan: no index is
        built.
        """
        if category.endswith("."):
            return sum(
                self._cats.count(cid)
                for name, cid in self._cat_of.items()
                if name.startswith(category)
            )
        cid = self._cat_of.get(category)
        return 0 if cid is None else self._cats.count(cid)

    def categories(self) -> Dict[str, int]:
        """Record count per category, sorted by category name."""
        # A category is interned with its first row, so every count is >= 1.
        return {
            name: self._cats.count(cid)
            for name, cid in sorted(self._cat_of.items())
        }

    def window(self, start: int, end: int) -> List[TraceRecord]:
        """All records with ``start <= time <= end``, in insertion order.

        The slice the invariant monitors attach to a violation report.
        """
        return self.select(start=start, end=end)

    def category_columns(
        self, category: str
    ) -> Tuple["array", "array", List[Dict[str, Any]]]:
        """``(times, nodes, payloads)`` columns for one exact category.

        The bulk accessor the analysis queries build on: times as an
        ``array('q')``, nodes as an ``array('i')``, payloads as a list of
        dicts, all in insertion order, gathered straight off the backing
        columns without materializing a single :class:`TraceRecord`.
        """
        rows = self._by_cat.refresh().get(self._cat_of.get(category))
        if not rows:
            return array("q"), array("i"), []
        times = self._times
        nodes = self._nodes
        payloads = self._payloads
        return (
            array("q", (times[row] for row in rows)),
            array("i", (nodes[row] for row in rows)),
            [payloads[row] for row in rows],
        )

    def rows(
        self, categories: Collection[str]
    ) -> Iterator[Tuple[int, str, int, Dict[str, Any]]]:
        """``(time, category, node, data)`` of every row of ``categories``,
        in insertion order, read off the columns like
        :meth:`category_columns`: no :class:`TraceRecord` materializes."""
        by_cat = self._by_cat.refresh()
        runs = [by_cat.get(self._cat_of.get(name), ()) for name in categories]
        names, times, cats = self._cat_names, self._times, self._cats
        nodes, payloads = self._nodes, self._payloads
        for row in sorted(chain.from_iterable(runs)):
            yield times[row], names[cats[row]], nodes[row], payloads[row]

    # -- export ------------------------------------------------------------------

    def encode_rows(
        self, sort_keys: bool = False, start: int = 0
    ) -> Iterator[List[str]]:
        """The JSON texts (:class:`RowEncoder`) of the records from number
        ``start`` on, read off the columns in lists of at most 64 rows."""
        encode = RowEncoder(sort_keys).encode
        names = self._cat_names
        rows = islice(
            zip(self._times, self._cats, self._nodes, self._payloads), start, None
        )
        while True:
            chunk = [encode(t, names[c], n, d) for t, c, n, d in islice(rows, 64)]
            if not chunk:
                return
            yield chunk

    def export_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Write the records as JSON lines; returns the count."""
        with JsonlSink(target) as sink:
            for rows in self.encode_rows():
                sink._handle.write("\n".join(rows) + "\n")
        return len(self)
