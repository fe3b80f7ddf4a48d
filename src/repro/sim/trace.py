"""Simulation trace recording.

Every layer appends typed records (category + payload dict) to a shared
:class:`TraceRecorder`. Tests and the MCAN/LCAN property monitors query the
trace after a run; benchmarks use it to account bandwidth; the online
invariant monitors of :mod:`repro.obs.monitors` subscribe as streaming
sinks and check properties *while* the run is in progress.

The recorder stores columns, not objects: times, interned category ids and
node ids live in packed ``array`` columns beside a list of payload dicts,
and a :class:`TraceRecord` only materializes when something looks at it — a
query, an iteration, a registered sink. Per-category and per-node indexes
are built lazily on the first query and extended incrementally, so
:meth:`TraceRecorder.select` costs O(matches) instead of a scan over the
whole trace, and a run that never queries its trace pays nothing for them.

Long campaigns that only need live monitoring can cap memory with
``TraceRecorder(capacity=...)``: the same store becomes a ring buffer that
evicts the oldest records (index entries included) while sinks still
observe every record as it happens. Finished traces stream to disk with
:meth:`TraceRecorder.export_jsonl` or live through a :class:`JsonlSink`.
"""

from __future__ import annotations

import heapq
import json
from array import array
from bisect import bisect_left
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

TraceSink = Callable[["TraceRecord"], None]

#: Trim the evicted rows off the front of the columns once this much dead
#: space accumulates in ring mode (and the dead space dominates), keeping
#: eviction amortized O(1).
_COMPACT_THRESHOLD = 1024

#: Lines buffered per write by the bulk export.
_EXPORT_BATCH = 512


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


class JsonlSink:
    """A streaming sink writing each record as one JSON line.

    Register with :meth:`TraceRecorder.add_sink`; pairs with ring-buffer
    mode for long campaigns: the in-memory trace stays bounded while the
    full history lands on disk.

    ``batch`` buffers that many encoded lines per file write: the default
    of 1 preserves the seed's record-at-a-time behaviour (each record is
    durable as soon as the sink returns), while bulk exports batch a few
    hundred lines per ``write`` and cut the syscall count by that factor.
    Buffered lines are flushed by :meth:`close` (and counted in
    ``records_written`` as soon as they are encoded).
    """

    def __init__(self, target: Union[str, IO[str]], batch: int = 1) -> None:
        if batch <= 0:
            raise ValueError(f"batch must be positive: {batch}")
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self._batch = batch
        self._buffer: List[str] = []
        self.records_written = 0

    def __call__(self, record: TraceRecord) -> None:
        if self._batch == 1:
            self._handle.write(json.dumps(record_to_dict(record)) + "\n")
            self.records_written += 1
            return
        self._buffer.append(json.dumps(record_to_dict(record)))
        self.records_written += 1
        if len(self._buffer) >= self._batch:
            self._drain_buffer()

    def _drain_buffer(self) -> None:
        if self._buffer:
            self._handle.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()

    def close(self) -> None:
        """Flush and close the underlying file (if this sink opened it)."""
        self._drain_buffer()
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class _LazyIndex:
    """Column value -> ``array`` of live sequence numbers, built on demand.

    Complete for sequence numbers ``< indexed_to``. A query brings it up
    to date with :meth:`refresh`, which also purges what the ring evicted
    since the last one; an index no query asks for costs nothing.
    """

    __slots__ = ("column", "buckets", "indexed_to", "floor")

    def __init__(self, column: "array") -> None:
        self.column = column
        self.buckets: Dict[int, "array"] = {}
        self.indexed_to = 0
        self.floor = 0

    def refresh(self, first: int, offset: int) -> Dict[int, "array"]:
        """Index the live rows ``column[offset:]``, whose first sequence
        number is ``first``; returns the buckets."""
        buckets = self.buckets
        if self.floor != first:
            # Dead sequence numbers sit at the front of each sorted bucket.
            for bucket in buckets.values():
                del bucket[: bisect_left(bucket, first)]
            self.floor = first
        # Records evicted before any query saw them are never indexed.
        start = max(self.indexed_to, first)
        fresh = self.column[start - first + offset :]
        for seq, key in enumerate(fresh, start):
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = array("q")
            bucket.append(seq)
        self.indexed_to = start + len(fresh)
        return buckets


class TraceRecorder:
    """Sequence of :class:`TraceRecord` held as columns, with indexed queries.

    Recording is four C-level appends plus one dict lookup — no
    :class:`TraceRecord` allocation; records materialize only when
    observed. Every record carries an absolute, ever-increasing sequence
    number (never stored: it follows from the row), so the lazily built
    category/node indexes stay valid across ring-buffer evictions and
    column compactions.
    """

    def __init__(
        self, enabled: bool = True, capacity: Optional[int] = None
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.enabled = enabled
        self._capacity = capacity
        self._disabled: set = set()
        self._sinks: List[TraceSink] = []
        self._max_time = 0
        self._times = array("q")
        self._cats = array("i")
        self._nodes = array("i")
        self._payloads: List[Dict[str, Any]] = []
        self._columns = (self._times, self._cats, self._nodes, self._payloads)
        #: Category interning: name -> small int and back.
        self._cat_of: Dict[str, int] = {}
        self._cat_names: List[str] = []
        # Bound appends: record_row() below runs once per trace record.
        # The columns are only ever trimmed in place, so the bindings stay
        # valid.
        self._t_append = self._times.append
        self._c_append = self._cats.append
        self._n_append = self._nodes.append
        self._p_append = self._payloads.append
        # Live records are the column rows ``[_offset:]``; the ring evicts
        # by advancing ``_first_seq`` (the oldest live sequence number,
        # which is also the eviction count) together with ``_offset``.
        # Sequence number -> row is ``seq - _first_seq + _offset``.
        self._offset = 0
        self._first_seq = 0
        self._by_cat = _LazyIndex(self._cats)
        self._by_node = _LazyIndex(self._nodes)

    # -- container protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._times) - self._offset

    def __iter__(self) -> Iterator[TraceRecord]:
        for row in range(self._offset, len(self._times)):
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
    def evicted(self) -> int:
        """Records dropped so far by the ring buffer."""
        return self._first_seq

    @property
    def last_time(self) -> int:
        """Largest record time seen so far (0 on an empty trace)."""
        return self._max_time

    # -- recording ---------------------------------------------------------------

    def add_sink(self, sink: TraceSink) -> TraceSink:
        """Stream every future record to ``sink`` (returns it for removal)."""
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: TraceSink) -> None:
        """Stop streaming to ``sink`` (missing sinks are ignored)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def wants(self, category: str) -> bool:
        """Cheap pre-check: would a record of ``category`` be retained?

        Hot paths guard their ``record(...)`` calls with this so a disabled
        recorder (or a disabled category) skips building the payload dict
        entirely — the kwargs dict is the dominant cost of a dropped record.
        """
        return self.enabled and category not in self._disabled

    def disable_categories(self, *categories: str) -> None:
        """Drop future records of the given exact categories."""
        self._disabled.update(categories)

    def record(
        self,
        time: int,
        category: str,
        node: int = -1,
        **data: Any,
    ) -> None:
        """Append a record (no-op while the recorder or category is off)."""
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
        if not self.enabled or category in self._disabled:
            return
        cat_id = self._cat_of.get(category)
        if cat_id is None:
            cat_id = self._cat_of[category] = len(self._cat_names)
            self._cat_names.append(category)
        self._t_append(time)
        self._c_append(cat_id)
        self._n_append(node)
        self._p_append(data)
        if time > self._max_time:
            self._max_time = time
        if (
            self._capacity is not None
            and len(self._times) - self._offset > self._capacity
        ):
            self._evict_oldest()
        if self._sinks:
            # Sinks observe real records: materialize once for all of them.
            entry = TraceRecord.__new__(TraceRecord)
            entry.time = time
            entry.category = category
            entry.node = node
            entry.data = data
            for sink in self._sinks:
                sink(entry)

    def _evict_oldest(self) -> None:
        self._offset += 1
        self._first_seq += 1
        if (
            self._offset > _COMPACT_THRESHOLD
            and self._offset * 2 > len(self._times)
        ):
            for column in self._columns:
                del column[: self._offset]
            self._offset = 0

    # -- queries -----------------------------------------------------------------

    def _seqs(self, index: _LazyIndex) -> Dict[int, "array"]:
        return index.refresh(self._first_seq, self._offset)

    def _candidate_seqs(
        self, category: Optional[str], node: Optional[int]
    ) -> Iterator[int]:
        """Sequence numbers to inspect, narrowed by the cheapest index."""
        if category is None and node is None:
            return iter(range(self._first_seq, self._first_seq + len(self)))
        if category is not None and not category.endswith("."):
            cid = self._cat_of.get(category)
            exact = self._seqs(self._by_cat).get(cid)
            if exact is None:
                return iter(())
            if node is not None:
                by_node = self._seqs(self._by_node).get(node, ())
                return iter(min(exact, by_node, key=len))
            return iter(exact)
        if category is not None:
            # Prefix query: merge the per-category runs back into insertion
            # order. Distinct categories are few, so this stays O(matches).
            by_cat = self._seqs(self._by_cat)
            runs = [
                by_cat[cid]
                for name, cid in self._cat_of.items()
                if name.startswith(category) and cid in by_cat
            ]
            return iter(runs[0]) if len(runs) == 1 else heapq.merge(*runs)
        return iter(self._seqs(self._by_node).get(node, ()))

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
        shift = self._offset - self._first_seq
        times = self._times
        cats = self._cats
        nodes = self._nodes
        names = self._cat_names
        result = []
        for seq in self._candidate_seqs(category, node):
            row = seq + shift
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

    def _count_id(self, cid: int) -> int:
        # C-speed column scan, no index required; the evicted rows still
        # awaiting compaction are counted back out.
        cats = self._cats
        return cats.count(cid) - cats[: self._offset].count(cid)

    def count(self, category: str) -> int:
        """Number of records with the given category.

        A trailing ``"."`` counts the whole prefix, summing over the
        distinct matching categories.
        """
        if category.endswith("."):
            return sum(
                self._count_id(cid)
                for name, cid in self._cat_of.items()
                if name.startswith(category)
            )
        cid = self._cat_of.get(category)
        return 0 if cid is None else self._count_id(cid)

    def categories(self) -> Dict[str, int]:
        """Record count per category, sorted by category name."""
        counts = {
            name: self._count_id(cid)
            for name, cid in sorted(self._cat_of.items())
        }
        return {name: count for name, count in counts.items() if count}

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
        seqs = self._seqs(self._by_cat).get(self._cat_of.get(category))
        if not seqs:
            return array("q"), array("i"), []
        shift = self._offset - self._first_seq
        times = self._times
        nodes = self._nodes
        payloads = self._payloads
        return (
            array("q", (times[seq + shift] for seq in seqs)),
            array("i", (nodes[seq + shift] for seq in seqs)),
            [payloads[seq + shift] for seq in seqs],
        )

    # -- export ------------------------------------------------------------------

    def export_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Write the retained records as JSON lines; returns the count."""
        sink = JsonlSink(target, batch=_EXPORT_BATCH)
        try:
            for record in self:
                sink(record)
        finally:
            sink.close()
        return sink.records_written

    def clear(self) -> None:
        """Drop all records and indexes (sinks and interning stay).

        Clearing is not eviction: :attr:`evicted` is untouched, and the
        cleared sequence numbers are handed out again.
        """
        for column in self._columns:
            del column[:]
        self._offset = 0
        for index in (self._by_cat, self._by_node):
            index.buckets.clear()
            index.indexed_to = self._first_seq
        self._max_time = 0
