"""Causal span tracing: who caused what, and how long each phase took.

The flat :class:`~repro.sim.trace.TraceRecorder` answers *what happened*;
spans answer *why it took that long*. A :class:`Span` is a named interval
``[start, end]`` attributed to one node and one protocol layer, carrying a
``parent`` link to the span that caused it. The instrumented stack — timer
service, CAN bus/controller/driver, EDCAN, FDA, RHA, failure detection and
membership — opens spans along every causal chain, so a node-failure
detection becomes a *tree* rooted at the missed life-sign: the surveillance
timer span whose expiry spawned the ``fd.detect`` span, whose FDA
failure-sign frame span spawned a bus transmission span, whose receive span
spawned the ``fda.nty`` deliveries and membership change notifications.

What all receivers of a frame learn alike is recorded once (``node=-1``):
one ``can.rx`` span per delivered frame, ``receivers`` = the node set that
took it, and one ``fd.surveillance`` span per *group* of observers sharing
a deadline, ``watchers`` = who it was armed for. Per-node spans are the
rare ones, so a frame costs a handful of spans whatever the population.

Tracing is **off by default** and costs one attribute load and branch per
site when off (every site guards on :attr:`SpanTracer.enabled`);
``docs/observability.md`` states the cost when on.
Enable it per run::

    net = CanelyNetwork(node_count=8, spans=True)   # or:
    net.sim.spans.enabled = True

Causality crosses simulated time through two mechanisms:

* **handles** — a transmit request carries the id of its frame span, a
  pending alarm the id of its timer span, so the completion path ends the
  span the submission path opened;
* **context** — the tracer keeps an explicit stack of "current" span ids;
  dispatch sites (timer expiry, frame delivery) push the causing span
  around the callbacks they invoke, and every span opened without an
  explicit parent adopts the top of the stack.

Downstream consumers: :mod:`repro.obs.critical_path` decomposes detection
and membership latency into segments that sum exactly to the observed
latency, and :mod:`repro.obs.export` renders Chrome trace-event JSON
(one "process" per node, one "thread" per layer) and text message
sequence charts.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.util.sets import NodeSet

__all__ = [
    "NULL_TRACER",
    "Span",
    "SpanTracer",
    "render_span_tree",
]


class Span:
    """One node-and-layer-attributed interval in the causal trace.

    Attributes:
        span_id: dense id, assigned in creation order (deterministic for a
            seeded run).
        name: dotted span kind, e.g. ``"can.tx"`` or ``"fd.surveillance"``.
        category: the layer the span belongs to (``"timers"``, ``"bus"``,
            ``"can"``, ``"llc"``, ``"fd"``, ``"fda"``, ``"rha"``, ``"msh"``,
            ``"node"``) — the Chrome-trace "thread" of the span.
        node: node identifier the span concerns (-1 for bus-global spans).
        start: opening time, kernel ticks.
        end: closing time, or ``None`` while the span is open.
        parent: ``span_id`` of the causing span, or ``None`` for a root.
        attrs: free-form attributes (merged from begin and end).
        events: ``(time, label)`` point events inside the span, e.g. one
            ``"arb-loss"`` per lost arbitration round of a frame span.
    """

    __slots__ = (
        "span_id",
        "name",
        "category",
        "node",
        "start",
        "end",
        "parent",
        "attrs",
        "events",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        category: str,
        node: int,
        start: int,
        parent: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.category = category
        self.node = node
        self.start = start
        self.end: Optional[int] = None
        self.parent = parent
        self.attrs = attrs
        self.events: List[Tuple[int, str]] = []

    @property
    def duration(self) -> Optional[int]:
        """``end - start``, or ``None`` while the span is open."""
        return None if self.end is None else self.end - self.start


def plain_value(value: Any) -> Any:
    """A node set as its ascending id list, a tuple as a list, anything
    else as it is — the form every exporter writes an attr in."""
    return list(value) if isinstance(value, (NodeSet, tuple)) else value


def span_to_dict(span: Span) -> Dict[str, Any]:
    """A JSON-serializable projection of ``span``."""
    return {
        "span_id": span.span_id,
        "name": span.name,
        "category": span.category,
        "node": span.node,
        "start": span.start,
        "end": span.end,
        "parent": span.parent,
        "attrs": {
            key: plain_value(value) for key, value in sorted(span.attrs.items())
        },
        "events": list(span.events),
    }


class SpanTracer:
    """Collects :class:`Span` objects and the causal context stack.

    Construction does not enable tracing: flip :attr:`enabled` (or pass
    ``spans=True`` to :class:`~repro.core.stack.CanelyNetwork`). The clock
    is bound by the owning :class:`~repro.sim.kernel.Simulator`; call sites
    that have the current time at hand pass it via ``at=`` to skip the
    clock call.
    """

    __slots__ = ("enabled", "_clock", "_spans", "_stack", "_children", "_indexed")

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        self.enabled = False
        # ``int()`` is 0: the time of a tracer no simulator has bound.
        self._clock: Callable[[], int] = clock if clock is not None else int
        self._spans: List[Span] = []
        self._stack: List[int] = []
        #: parent id -> children over the first ``_indexed`` spans; spans
        #: only append, so :meth:`children` indexes what came since.
        self._children: Dict[int, List[Span]] = {}
        self._indexed = 0

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Set the time source used when ``at`` is not given."""
        self._clock = clock

    # -- recording ---------------------------------------------------------------

    def begin(
        self,
        name: str,
        category: str,
        node: int = -1,
        parent: Optional[int] = None,
        at: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Open a span; returns its id.

        ``parent`` defaults to the current context span (top of the stack),
        making causality free wherever the dispatch site pushed context.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        span_id = len(self._spans)
        self._spans.append(
            Span(
                span_id,
                name,
                category,
                node,
                self._clock() if at is None else at,
                parent,
                attrs,
            )
        )
        return span_id

    def end(
        self, span_id: Optional[int], at: Optional[int] = None, **attrs: Any
    ) -> None:
        """Close an open span (``None`` ids and double-ends are no-ops)."""
        if span_id is None:
            return
        span = self._spans[span_id]
        if span.end is not None:
            return
        span.end = self._clock() if at is None else at
        if attrs:
            span.attrs.update(attrs)

    def instant(
        self,
        name: str,
        category: str,
        node: int = -1,
        parent: Optional[int] = None,
        at: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """A zero-duration span (point event that can still parent others)."""
        span_id = self.begin(
            name, category, node=node, parent=parent, at=at, **attrs
        )
        span = self._spans[span_id]
        span.end = span.start
        return span_id

    def event(
        self, span_id: Optional[int], label: str, at: Optional[int] = None
    ) -> None:
        """Attach a point event to an existing span (``None`` id: no-op)."""
        if span_id is None:
            return
        self._spans[span_id].events.append(
            (self._clock() if at is None else at, label)
        )

    # -- causal context -----------------------------------------------------------

    def push(self, span_id: int) -> None:
        """Make ``span_id`` the implicit parent of spans opened next."""
        self._stack.append(span_id)

    def pop(self) -> None:
        """Undo the matching :meth:`push`."""
        self._stack.pop()

    @property
    def current(self) -> Optional[int]:
        """The span id new spans will adopt as parent, or ``None``."""
        return self._stack[-1] if self._stack else None

    # -- queries -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def get(self, span_id: int) -> Span:
        """The span with the given id."""
        return self._spans[span_id]

    def select(
        self,
        name: Optional[str] = None,
        category: Optional[str] = None,
        node: Optional[int] = None,
        predicate: Optional[Callable[[Span], bool]] = None,
    ) -> List[Span]:
        """Spans matching every given filter, in creation order."""
        result = []
        for span in self._spans:
            if name is not None and span.name != name:
                continue
            if category is not None and span.category != category:
                continue
            if node is not None and span.node != node:
                continue
            if predicate is not None and not predicate(span):
                continue
            result.append(span)
        return result

    def children(self, span_id: int) -> List[Span]:
        """Direct children of ``span_id``, in creation order."""
        index = self._children
        for span in self._spans[self._indexed :]:
            if span.parent is not None:
                index.setdefault(span.parent, []).append(span)
        self._indexed = len(self._spans)
        return list(index.get(span_id, ()))

    def ancestors(self, span_id: int) -> List[Span]:
        """The parent chain of ``span_id``, nearest first (excludes self)."""
        chain: List[Span] = []
        parent = self._spans[span_id].parent
        while parent is not None:
            span = self._spans[parent]
            chain.append(span)
            parent = span.parent
        return chain

    def open_spans(self) -> List[Span]:
        """Spans not closed so far (at the end of a run: timers still armed)."""
        return [span for span in self._spans if span.end is None]

    def max_time(self) -> int:
        """Largest timestamp recorded on any span edge or event."""
        latest = 0
        for span in self._spans:
            edge = span.start if span.end is None else span.end
            if edge > latest:
                latest = edge
            for time, _label in span.events:
                if time > latest:
                    latest = time
        return latest

    def summary(self) -> Dict[Tuple[str, str], int]:
        """Span count per ``(category, name)``, sorted."""
        counts: Dict[Tuple[str, str], int] = {}
        for span in self._spans:
            key = (span.category, span.name)
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))


#: Shared disabled tracer: the default for components constructed without a
#: simulator (standalone controllers, substrate-only tests). Never enable
#: it — wire a real, clock-bound tracer instead.
NULL_TRACER = SpanTracer()


def render_span_tree(
    tracer: SpanTracer,
    root_id: int,
    format_time: Optional[Callable[[int], str]] = None,
    max_depth: int = 12,
) -> List[str]:
    """ASCII rendering of the span tree rooted at ``root_id``.

    One line per span: indentation is causal depth, then the interval, the
    span name, node, and duration — the quickest way to *see* why a
    detection took as long as it did.
    """
    fmt = format_time if format_time is not None else str
    lines: List[str] = []

    def _walk(span: Span, depth: int) -> None:
        if depth > max_depth:
            return
        duration = "open" if span.end is None else fmt(span.duration)
        label = ", ".join(
            f"{key}={plain_value(value)}"
            for key, value in sorted(span.attrs.items())
        )
        lines.append(
            f"{'  ' * depth}{fmt(span.start):>12}  {span.name} "
            f"node={span.node} ({duration})"
            + (f" [{label}]" if label else "")
        )
        for child in tracer.children(span.span_id):
            _walk(child, depth + 1)

    _walk(tracer.get(root_id), 0)
    return lines
