"""Online invariant monitors over the live trace stream.

Post-hoc assertions (``tests/``, :mod:`repro.llc.properties`) only tell you
a week-long campaign went wrong *after* it finished. These monitors
subscribe to the :class:`~repro.sim.trace.TraceRecorder` as streaming
sinks and check MCAN/LCAN-style protocol properties on every record of
the categories they read, so a violation stops the run at the offending
instant — and the raised :class:`InvariantViolation` carries the trace
slice around it, which is usually the whole diagnosis.

Each monitor declares the categories it reads in its ``categories``
attribute, and the recorder routes only those rows to it: a bus row
costs the monitors nothing. These are the categories (emitted by the
instrumented protocol layers):

* ``fda.nty`` / ``swim.confirm`` — a node learnt that ``data["failed"]``
  failed (CANELy's failure-sign delivered upward, SWIM's confirmation).
* ``fda.reset`` / ``fda.evict`` — FDA counters retired for one failed
  identifier.
* ``msh.view`` / ``msh.change`` — a node installed a view / was notified.
* ``node.crash`` / ``node.recover`` — fault scripting events.

Each backend picks the monitors that judge it
(:meth:`repro.core.stack.MembershipNode.monitors`).
"""

from __future__ import annotations

import abc
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.sim.clock import format_time
from repro.sim.trace import TraceRecord, TraceRecorder

#: How much context (in ticks) around a violation goes into the report.
_SLICE_MARGIN = 2_000_000  # 2 ms

#: Agreement bookkeeping horizon: per pair, view changes this far behind
#: the newest are settled and dropped, bounding memory on long campaigns.
_ROUND_HORIZON = 16


class InvariantViolation(AssertionError):
    """An online monitor caught a protocol property violation.

    Attributes:
        monitor: name of the violated invariant.
        records: the offending trace slice (chronological).
    """

    def __init__(
        self, monitor: str, message: str, records: List[TraceRecord]
    ) -> None:
        self.monitor = monitor
        self.records = records
        lines = [f"[{monitor}] {message}"]
        if records:
            lines.append("offending trace slice:")
            for record in records:
                lines.append(
                    f"  {format_time(record.time):>12}  {record.category}"
                    f" node={record.node} {record.data}"
                )
        super().__init__("\n".join(lines))


class InvariantMonitor(abc.ABC):
    """Base class: a named trace sink that can fail fast.

    A new monitor declares the rows it reads in :attr:`categories`;
    ``None`` (the default) reads every row. ``records_seen`` counts the
    rows delivered to :meth:`observe`.
    """

    name = "invariant"
    #: The trace categories :meth:`observe` reads, or ``None`` for all.
    categories: Optional[FrozenSet[str]] = None

    def __init__(self) -> None:
        self._trace: Optional[TraceRecorder] = None
        self.records_seen = 0

    def attach(self, trace: TraceRecorder) -> "InvariantMonitor":
        """Subscribe to ``trace``'s rows of :attr:`categories`; returns
        self for chaining."""
        self._trace = trace
        trace.add_sink(self.observe, self.categories)
        return self

    def detach(self) -> None:
        """Unsubscribe from the trace."""
        if self._trace is not None:
            self._trace.remove_sink(self.observe)
            self._trace = None

    @abc.abstractmethod
    def observe(self, record: TraceRecord) -> None:
        """Inspect one record of :attr:`categories`; must raise
        :class:`InvariantViolation` on a property violation."""

    def fail(self, message: str, start: int, end: int) -> None:
        """Raise a violation carrying the trace slice ``[start, end]``."""
        records: List[TraceRecord] = []
        if self._trace is not None:
            records = self._trace.window(
                max(0, start - _SLICE_MARGIN), end + _SLICE_MARGIN
            )
        raise InvariantViolation(self.name, message, records)


class DuplicateFailureSignMonitor(InvariantMonitor):
    """No node delivers two failure-signs for the same failed identifier.

    The FDA duplicate counters (Fig. 6, r01-r02) guarantee at-most-once
    upward delivery per failed node until the membership layer retires the
    counters (``fda.reset``) or the receiver reboots. A second ``fda.nty``
    in between means the dedup state was lost or corrupted.

    CANELy-only: it reads ``fda.*`` rows, which no other backend emits.
    """

    name = "no-duplicate-failure-sign"
    categories = frozenset(("fda.nty", "fda.reset", "fda.evict", "node.recover"))

    def __init__(self) -> None:
        super().__init__()
        # (receiver, failed) -> time of the first delivery.
        self._delivered: Dict[Tuple[int, int], int] = {}

    def observe(self, record: TraceRecord) -> None:
        self.records_seen += 1
        if record.category == "fda.nty":
            key = (record.node, record.data["failed"])
            first = self._delivered.get(key)
            if first is not None:
                self.fail(
                    f"node {record.node} delivered a second failure-sign "
                    f"for node {record.data['failed']} at "
                    f"{format_time(record.time)} (first at "
                    f"{format_time(first)})",
                    first,
                    record.time,
                )
            self._delivered[key] = record.time
        elif record.category == "node.recover":
            for key in [k for k in self._delivered if k[0] == record.node]:
                del self._delivered[key]
        else:  # fda.reset, fda.evict
            self._delivered.pop((record.node, record.data["failed"]), None)


class ViewAgreementMonitor(InvariantMonitor):
    """Mutual members install the same *sequence* of views.

    The ``round_index`` in a ``msh.view`` record is a *local* counter —
    nodes that bootstrap in the same cycle share it, but a late joiner
    misses installations while its join is in flight, so round numbers are
    not comparable across nodes. What virtual synchrony (the paper's
    Fig. 9) actually demands is content, not numbering: while two nodes
    each consider the other a full member, the succession of *distinct*
    views they install must be identical.

    Per pair the monitor therefore logs each side's view changes starting
    from the view that made the pair mutual (the one introducing the later
    of the two — both sides install that same logical view, so the logs
    are anchored), collapses the per-cycle reinstalls of an unchanged
    view, and compares the two logs position by position. The pair is
    retired whenever either node installs a view excluding the other (or
    reboots), so a later reintegration re-anchors cleanly.

    CANELy-only: virtual synchrony is stronger than SWIM's eventual
    convergence; correct SWIM trips it on 3/60 depth-1 schedules on one
    bus and on 60/60 on two segments.
    """

    name = "view-agreement"
    categories = frozenset(("msh.view", "node.recover"))

    def __init__(self) -> None:
        super().__init__()
        # (a, b) with a < b  ->  {node: [dropped, [(time, members), ...]]}
        # ``dropped`` counts horizon-pruned entries so positions stay
        # comparable as absolute indices into the change sequence.
        self._pairs: Dict[Tuple[int, int], Dict[int, list]] = {}
        # node -> the peers it has a pair with: retiring costs O(degree).
        self._peers: Dict[int, Set[int]] = {}

    @staticmethod
    def _key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def _retire(self, node: int, peer: int) -> None:
        del self._pairs[self._key(node, peer)]
        self._peers[peer].discard(node)

    def observe(self, record: TraceRecord) -> None:
        self.records_seen += 1
        node = record.node
        if record.category == "node.recover":
            # A rebooted node restarts its protocol state; everything it
            # installed before the reboot is history. Re-anchor its pairs.
            for peer in self._peers.pop(node, ()):
                self._retire(node, peer)
            return
        members = frozenset(record.data["members"])
        if node not in members:
            # A passive tracker's view is not authoritative; nothing to
            # anchor or compare until it believes itself a member.
            return
        # Views that drop a peer retire the pair: a reintegrated peer is
        # a fresh pair, anchored at its new introducing view.
        peers = self._peers.setdefault(node, set())
        dropped = peers - members
        for peer in dropped:
            self._retire(node, peer)
        peers -= dropped
        for peer in members:
            if peer == node:
                continue
            key = self._key(node, peer)
            logs = self._pairs.get(key)
            if logs is None:
                logs = self._pairs[key] = {}
                peers.add(peer)
                self._peers.setdefault(peer, set()).add(node)
            mine = logs.setdefault(node, [0, []])
            entries = mine[1]
            if entries and entries[-1][1] == members:
                continue  # the per-cycle reinstall of an unchanged view
            entries.append((record.time, members))
            if len(entries) > _ROUND_HORIZON:
                del entries[0]
                mine[0] += 1
            index = mine[0] + len(entries) - 1
            theirs = logs.get(peer)
            if theirs is None:
                continue  # the peer has not seen a mutual view yet
            slot = index - theirs[0]
            if not 0 <= slot < len(theirs[1]):
                continue  # the peer is behind (or the slot was pruned)
            peer_time, peer_members = theirs[1][slot]
            if peer_members != members:
                self.fail(
                    f"view change #{index} of the pair ({node}, {peer}): "
                    f"node {node} installed {sorted(members)} but node "
                    f"{peer} installed {sorted(peer_members)}",
                    min(peer_time, record.time),
                    record.time,
                )


class PhantomRemovalMonitor(InvariantMonitor):
    """No correct node is ever notified as *failed*.

    The failure-notification path (failure-sign or confirmation ->
    ``msh.change`` with a non-empty ``failed`` set) must only ever name
    nodes that actually crashed: a failure notification for a live node
    means a surveillance timer fired early, a failure-sign was forged or corrupted, or the FDA
    dedup state leaked across identifiers — the membership *validity*
    property of the paper's Fig. 9.

    A node that leaves voluntarily learns of its own withdrawal through a
    change notification whose ``failed`` set names itself (Fig. 9,
    a13-a15); that self-notification is the one benign case and is skipped.
    """

    name = "no-phantom-removal"
    categories = frozenset(("node.crash", "node.recover", "msh.change"))

    def __init__(self) -> None:
        super().__init__()
        self._crashed: Set[int] = set()

    def observe(self, record: TraceRecord) -> None:
        self.records_seen += 1
        category = record.category
        if category == "node.crash":
            self._crashed.add(record.node)
        elif category == "node.recover":
            self._crashed.discard(record.node)
        else:  # msh.change
            for failed in record.data["failed"]:
                if failed == record.node:
                    continue  # a13-a15: voluntary-leave self-notification
                if failed not in self._crashed:
                    self.fail(
                        f"node {record.node} was notified at "
                        f"{format_time(record.time)} that node {failed} "
                        f"failed, but node {failed} never crashed",
                        record.time,
                        record.time,
                    )


class DetectionLatencyMonitor(InvariantMonitor):
    """A member crash is signalled within the backend's latency bound.

    ``row`` is the ``(node, failed)`` detection row: CANELy's ``fda.nty``
    (the default), whose ``bound`` is the worst-case crash-to-failure-sign
    latency — ``Thb + Ttd`` silence detection (MCAN4) plus the FDA
    dissemination slack — or SWIM's ``swim.confirm``. Every observed
    latency also lands in the ``fd.detection_latency_ticks`` histogram of
    ``metrics``, making the detector's timing behavior a queryable signal.
    """

    name = "detection-latency"

    def __init__(
        self,
        bound: int,
        metrics: Optional[MetricsRegistry] = None,
        row: str = "fda.nty",
    ) -> None:
        super().__init__()
        self.bound = bound
        self._metrics = metrics
        self._row = row
        self.categories = frozenset(("msh.view", "node.crash", "node.recover", row))
        self._crash_times: Dict[int, int] = {}
        self._members_ever: Set[int] = set()

    def observe(self, record: TraceRecord) -> None:
        self.records_seen += 1
        if record.category == "msh.view":
            self._members_ever.update(record.data["members"])
        elif record.category == "node.crash":
            self._crash_times.setdefault(record.node, record.time)
        elif record.category == "node.recover":
            self._crash_times.pop(record.node, None)
        else:  # the detection row
            failed = record.data["failed"]
            crashed_at = self._crash_times.get(failed)
            if crashed_at is None or failed not in self._members_ever:
                return
            latency = record.time - crashed_at
            if self._metrics is not None:
                self._metrics.histogram(
                    "fd.detection_latency_ticks", node=failed
                ).observe(latency)
            if latency > self.bound:
                self.fail(
                    f"failure-sign for node {failed} reached node "
                    f"{record.node} {format_time(latency)} after the crash "
                    f"(bound {format_time(self.bound)})",
                    crashed_at,
                    record.time,
                )


def standard_monitors(
    trace: TraceRecorder,
    detection_bound: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> List[InvariantMonitor]:
    """Attach CANELy's monitor set to ``trace`` and return it.

    ``detection_bound`` enables the latency monitor; without it only the
    structural invariants (duplicate failure-signs, view agreement, no
    phantom removals) run. ``CanelyNode.monitors`` returns this set.
    """
    monitors: List[InvariantMonitor] = [
        DuplicateFailureSignMonitor().attach(trace),
        ViewAgreementMonitor().attach(trace),
        PhantomRemovalMonitor().attach(trace),
    ]
    if detection_bound is not None:
        monitors.append(
            DetectionLatencyMonitor(detection_bound, metrics).attach(trace)
        )
    return monitors
