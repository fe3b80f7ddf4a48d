"""Runtime monitors for the system-model properties (paper Figs. 2 and 3).

These monitors scan a finished simulation trace and report violations of the
MCAN (MAC-level) and LCAN (LLC-level) properties that the CANELy protocols
assume. They are used by integration and property-based tests to certify
that the simulated substrate really provides the modelled CAN semantics, and
that the fault injector respects the degree bounds.

Checked properties:

* **MCAN1 (Broadcast)** — all nodes accepting one uncorrupted physical
  transmission received the same frame.
* **MCAN2 (Error detection)** — no node delivers a frame from a consistently
  corrupted transmission.
* **MCAN3 (Bounded omission degree)** — at most ``k`` omissions per
  reference window.
* **LCAN1 (Validity)** — a message broadcast by a correct node is delivered
  to at least one correct node.
* **LCAN2 (Best-effort agreement)** — a message delivered to a correct node
  whose sender stayed correct is delivered to every correct node.
* **LCAN3 (At-least-once delivery)** — duplicates only ever follow an
  inconsistent transmission of the same identifier.
* **LCAN4 (Bounded inconsistent omission degree)** — at most ``j``
  inconsistent omissions per reference window.

MCAN4 (bounded transmission delay) is a timeliness property; it is verified
analytically by :mod:`repro.analysis.timing` and asserted in tests against
measured queue-to-wire latencies rather than from the trace alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.sim.trace import TraceRecord, TraceRecorder, deliveries


@dataclass
class PropertyReport:
    """Outcome of a property-monitor pass."""

    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no property was violated."""
        return not self.violations

    def extend(self, other: "PropertyReport") -> None:
        self.violations.extend(other.violations)


def _crashed_nodes(trace: TraceRecorder) -> Set[int]:
    return {record.node for record in trace.select(category="node.crash")}


def _deliveries(trace: TraceRecorder):
    """Every delivery in ``trace``, one ``(time, node, mid, remote,
    inconsistent)`` per receiver."""
    return deliveries(trace.select(category="bus.deliver"))


def check_mcan1_broadcast(trace: TraceRecorder) -> PropertyReport:
    """All deliveries at one completion instant carry the transmitted frame."""
    report = PropertyReport()
    tx_by_time: Dict[int, TraceRecord] = {
        record.time: record for record in trace.select(category="bus.tx")
    }
    for time, node, mid, _remote, _inconsistent in _deliveries(trace):
        tx = tx_by_time.get(time)
        if tx is None:
            report.violations.append(
                f"MCAN1: delivery at t={time} without a transmission"
            )
            continue
        if mid != tx.data["mid"]:
            report.violations.append(
                f"MCAN1: node {node} received {mid!r} "
                f"but the bus carried {tx.data['mid']!r} at t={time}"
            )
    return report


def check_mcan2_error_detection(trace: TraceRecorder) -> PropertyReport:
    """Consistently corrupted transmissions are delivered to nobody."""
    report = PropertyReport()
    corrupted_times = {
        record.time
        for record in trace.select(category="bus.tx")
        if record.data["kind"] == "consistent"
    }
    for time, node, _mid, _remote, _inconsistent in _deliveries(trace):
        if time in corrupted_times:
            report.violations.append(
                f"MCAN2: node {node} delivered a frame from a "
                f"corrupted transmission at t={time}"
            )
    return report


def _window_violation(
    times: List[int], bound: int, window: int, label: str
) -> Optional[str]:
    times = sorted(times)
    start = 0
    for end in range(len(times)):
        while times[end] - times[start] > window:
            start += 1
        if end - start + 1 > bound:
            return (
                f"{label}: {end - start + 1} omissions within a "
                f"{window}-tick window (bound {bound})"
            )
    return None


def check_mcan3_omission_degree(
    trace: TraceRecorder, omission_degree: int, window: int
) -> PropertyReport:
    """At most ``k`` omissions in any reference window."""
    report = PropertyReport()
    times = [
        record.time
        for record in trace.select(category="bus.tx")
        if record.data["kind"] != "none"
    ]
    violation = _window_violation(times, omission_degree, window, "MCAN3")
    if violation:
        report.violations.append(violation)
    return report


def check_lcan4_inconsistent_degree(
    trace: TraceRecorder, inconsistent_degree: int, window: int
) -> PropertyReport:
    """At most ``j`` inconsistent omissions in any reference window."""
    report = PropertyReport()
    times = [
        record.time
        for record in trace.select(category="bus.tx")
        if record.data["kind"] == "inconsistent"
    ]
    violation = _window_violation(times, inconsistent_degree, window, "LCAN4")
    if violation:
        report.violations.append(violation)
    return report


def _deliveries_by_mid(
    trace: TraceRecorder,
) -> Dict[object, Dict[int, int]]:
    """mid -> node -> delivery count."""
    result: Dict[object, Dict[int, int]] = {}
    for _time, node, mid, _remote, _inconsistent in _deliveries(trace):
        per_node = result.setdefault(mid, {})
        per_node[node] = per_node.get(node, 0) + 1
    return result


def check_lcan1_validity(
    trace: TraceRecorder, correct_nodes: Iterable[int]
) -> PropertyReport:
    """Messages sent by correct nodes reach at least one correct node."""
    report = PropertyReport()
    correct = set(correct_nodes)
    deliveries = _deliveries_by_mid(trace)
    for tx in trace.select(category="bus.tx"):
        senders = set(tx.data["senders"])
        if not senders & correct:
            continue
        mid = tx.data["mid"]
        receivers = set(deliveries.get(mid, {}))
        if not receivers & correct:
            report.violations.append(
                f"LCAN1: {mid!r} sent by correct node(s) {sorted(senders)} "
                "was never delivered to any correct node"
            )
    return report


def check_lcan2_agreement(
    trace: TraceRecorder, correct_nodes: Iterable[int]
) -> PropertyReport:
    """Delivery at one correct node + correct sender => delivery at all."""
    report = PropertyReport()
    correct = set(correct_nodes)
    crashed = _crashed_nodes(trace)
    for mid, per_node in _deliveries_by_mid(trace).items():
        sender = getattr(mid, "node", None)
        if sender is None or sender in crashed:
            continue  # LCAN2 only constrains messages whose sender stayed correct
        delivered_to = set(per_node) & correct
        if not delivered_to:
            continue
        missing = correct - set(per_node)
        if missing:
            report.violations.append(
                f"LCAN2: {mid!r} (sender {sender} stayed correct) delivered "
                f"to {sorted(delivered_to)} but missing at {sorted(missing)}"
            )
    return report


def check_lcan3_duplicates(trace: TraceRecorder) -> PropertyReport:
    """Duplicates at a node only follow an inconsistent transmission.

    Control messages (ELS, resync, ring messages) legitimately reuse their
    identifier across logical sends, so a "duplicate" is only flagged when
    a node received *more copies than the bus carried transmissions* of
    that identifier — which can only happen through a delivery bug — or,
    for singly-transmitted identifiers, when no fault or clustering
    explains the extra copy.
    """
    report = PropertyReport()
    tx_count: Dict[object, int] = {}
    for record in trace.select(category="bus.tx"):
        mid = record.data["mid"]
        tx_count[mid] = tx_count.get(mid, 0) + 1
    for mid, per_node in _deliveries_by_mid(trace).items():
        worst = max(per_node.values())
        transmissions = tx_count.get(mid, 0)
        if worst > transmissions:
            report.violations.append(
                f"LCAN3: some node received {worst} copies of {mid!r} but the "
                f"bus only carried {transmissions} transmissions"
            )
    return report


def check_all_properties(
    trace: TraceRecorder,
    correct_nodes: Iterable[int],
    omission_degree: int,
    inconsistent_degree: int,
    window: int,
) -> PropertyReport:
    """Run every monitor; returns the merged report."""
    correct = set(correct_nodes)
    report = PropertyReport()
    report.extend(check_mcan1_broadcast(trace))
    report.extend(check_mcan2_error_detection(trace))
    report.extend(check_mcan3_omission_degree(trace, omission_degree, window))
    report.extend(check_lcan1_validity(trace, correct))
    report.extend(check_lcan2_agreement(trace, correct))
    report.extend(check_lcan3_duplicates(trace))
    report.extend(
        check_lcan4_inconsistent_degree(trace, inconsistent_degree, window)
    )
    return report
